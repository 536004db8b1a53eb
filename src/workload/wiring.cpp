// Builtin protocol registrations: the factories that wire each protocol's
// servers and service clients into a Deployment.
//
// This TU is part of the workload library that every binary already links
// (experiment.cpp calls ensure_builtins_registered() below), so the
// registrations cannot be dead-stripped the way standalone self-registering
// TUs in a static library can.
#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "protocols/dq_client.h"
#include "protocols/dynamo.h"
#include "protocols/hermes.h"
#include "protocols/majority.h"
#include "protocols/primary_backup.h"
#include "protocols/quorum_client.h"
#include "protocols/registry.h"
#include "protocols/rowa.h"
#include "protocols/rowa_async.h"
#include "quorum/quorum.h"
#include "workload/experiment.h"

namespace dq::workload {
namespace {

using protocols::Capability;
using protocols::ConsistencyClass;
using protocols::ProtocolInfo;
using protocols::Registry;

// --- DQVL family -----------------------------------------------------------

enum class DqvlVariant : std::uint8_t { kHeadline, kAtomic, kBasic };

void build_dqvl(Deployment& dep, DqvlVariant variant) {
  const ExperimentParams& params = dep.params();
  sim::World& world = dep.world();
  const auto& topo = world.topology();
  const QuorumSpec& spec = params.iqs;
  DQ_INVARIANT(spec.size() >= 1 && spec.size() <= topo.num_servers(),
               "IQS spec size out of range");

  std::vector<NodeId> all = topo.servers();
  std::vector<NodeId> iqs_members(
      all.begin(), all.begin() + static_cast<std::ptrdiff_t>(spec.size()));
  auto cfg = std::make_shared<core::DqConfig>(core::DqConfig::headline(
      all, iqs_members,
      variant == DqvlVariant::kBasic ? sim::kTimeInfinity
                                     : params.lease_length));
  cfg->iqs = spec.build(iqs_members);
  if (params.oqs_read_quorum > 1) {
    // |orq| = r implies |owq| = n - r + 1 for intersection.
    const std::size_t n = all.size();
    DQ_INVARIANT(params.oqs_read_quorum <= n, "oqs_read_quorum too large");
    cfg->oqs = std::make_shared<quorum::ThresholdQuorum>(
        all, params.oqs_read_quorum, n - params.oqs_read_quorum + 1);
  }
  cfg->object_lease_length = params.object_lease_length;
  cfg->volumes = store::VolumeMap(params.num_volumes);
  cfg->max_delayed_per_volume = params.max_delayed_per_volume;
  cfg->max_drift = params.max_drift;
  cfg->suppression_enabled = params.suppression;
  cfg->proactive_volume_renewal = params.proactive_renewal;
  cfg->batch_volume_renewals = params.batch_renewals;
  cfg->rpc = dep.rpc_options();
  cfg->wal = params.wal;

  Deployment::DqvlRuntime rt;
  rt.cfg = cfg;

  for (std::size_t i = 0; i < topo.num_servers(); ++i) {
    const NodeId n = topo.server(i);
    EdgeNode& node = dep.server_node(i);

    // Front end (service client) -- must see replies first.
    std::shared_ptr<protocols::ServiceClient> sc;
    if (variant == DqvlVariant::kAtomic) {
      sc = std::make_shared<protocols::DqAtomicServiceClient>(world, n,
                                                              rt.cfg);
    } else {
      sc = std::make_shared<protocols::DqServiceClient>(world, n, rt.cfg);
    }
    dep.install_front_end(i, std::move(sc));

    // OQS member (every server).
    auto oqs = std::make_unique<core::OqsServer>(world, n, rt.cfg);
    core::OqsServer* oqs_raw = oqs.get();
    node.add_handler([oqs_raw](const sim::Envelope& e) {
      return oqs_raw->on_message(e);
    });
    node.add_crash_hook([oqs_raw] { oqs_raw->on_crash(); },
                        [oqs_raw] { oqs_raw->on_recover(); });
    rt.oqs.emplace(n.value(), std::move(oqs));

    // IQS member (first iqs_size servers).
    if (rt.cfg->iqs->is_member(n)) {
      auto iqs = std::make_unique<core::IqsServer>(world, n, rt.cfg);
      core::IqsServer* iqs_raw = iqs.get();
      node.add_handler([iqs_raw](const sim::Envelope& e) {
        return iqs_raw->on_message(e);
      });
      node.add_crash_hook([iqs_raw] { iqs_raw->on_crash(); },
                          [iqs_raw] { iqs_raw->on_recover(); });
      rt.iqs.emplace(n.value(), std::move(iqs));
    }
  }
  dep.set_dqvl_runtime(std::move(rt));
  dep.install_app_clients();
}

// --- majority --------------------------------------------------------------

void build_majority(Deployment& dep) {
  sim::World& world = dep.world();
  const auto& topo = world.topology();
  auto system = std::shared_ptr<const quorum::QuorumSystem>(
      quorum::ThresholdQuorum::majority(topo.servers()));
  for (std::size_t i = 0; i < topo.num_servers(); ++i) {
    auto srv = std::make_shared<protocols::MajorityServer>(
        world, topo.server(i), dep.params().wal);
    protocols::MajorityServer* raw = srv.get();
    dep.server_node(i).add_handler([raw](const sim::Envelope& e) {
      return raw->on_message(e);
    });
    dep.server_node(i).add_crash_hook([raw] { raw->on_crash(); },
                                      [raw] { raw->on_recover(); });
    dep.retain(std::move(srv));
  }
  // Direct-access clients (the paper's majority latency is insensitive to
  // edge locality).
  dep.install_direct_clients([&dep, &world, system](NodeId cn) {
    return std::static_pointer_cast<protocols::ServiceClient>(
        std::make_shared<protocols::ClientStampedClient>(
            world, cn, system, system, dep.rpc_options()));
  });
}

// --- primary/backup --------------------------------------------------------

void build_primary_backup(Deployment& dep, protocols::PbMode mode) {
  sim::World& world = dep.world();
  const auto& topo = world.topology();
  auto cfg = std::make_shared<protocols::PbConfig>();
  // Primary on the last server: with the default client homes (0, 1, 2, ...)
  // no client is colocated with the primary, matching the paper's setting
  // where the primary is a WAN hop away.
  cfg->primary = topo.server(topo.num_servers() - 1);
  cfg->replicas = topo.servers();
  cfg->mode = mode;
  cfg->rpc = dep.rpc_options();
  cfg->wal = dep.params().wal;
  std::shared_ptr<const protocols::PbConfig> ccfg = cfg;

  for (std::size_t i = 0; i < topo.num_servers(); ++i) {
    auto srv = std::make_shared<protocols::PbServer>(world, topo.server(i),
                                                     ccfg);
    protocols::PbServer* raw = srv.get();
    dep.server_node(i).add_handler([raw](const sim::Envelope& e) {
      return raw->on_message(e);
    });
    dep.server_node(i).add_crash_hook([raw] { raw->on_crash(); },
                                      [raw] { raw->on_recover(); });
    dep.retain(std::move(srv));
  }
  std::shared_ptr<const quorum::QuorumSystem> primary =
      quorum::ThresholdQuorum::majority({cfg->primary});
  dep.install_direct_clients([&world, primary, ccfg](NodeId cn) {
    return std::static_pointer_cast<protocols::ServiceClient>(
        std::make_shared<protocols::ServerStampedClient>(world, cn, primary,
                                                          ccfg->rpc));
  });
}

// --- ROWA ------------------------------------------------------------------

void build_rowa(Deployment& dep) {
  sim::World& world = dep.world();
  const auto& topo = world.topology();
  auto system = std::shared_ptr<const quorum::QuorumSystem>(
      quorum::ThresholdQuorum::rowa(topo.servers()));
  std::vector<std::shared_ptr<protocols::RowaServer>> servers;
  for (std::size_t i = 0; i < topo.num_servers(); ++i) {
    servers.push_back(
        std::make_shared<protocols::RowaServer>(world, topo.server(i)));
  }
  for (std::size_t i = 0; i < topo.num_servers(); ++i) {
    const NodeId n = topo.server(i);
    auto sc = std::make_shared<protocols::RowaClient>(
        world, n, system, servers[i].get(), dep.rpc_options());
    dep.install_front_end(i, std::move(sc));
    protocols::RowaServer* srv_raw = servers[i].get();
    dep.server_node(i).add_handler([srv_raw](const sim::Envelope& e) {
      return srv_raw->on_message(e);
    });
    dep.retain(servers[i]);
  }
  dep.install_app_clients();
}

// --- ROWA-Async ------------------------------------------------------------

void build_rowa_async(Deployment& dep) {
  sim::World& world = dep.world();
  const auto& topo = world.topology();
  auto cfg = std::make_shared<protocols::RowaAsyncConfig>();
  cfg->replicas = topo.servers();
  cfg->rpc = dep.rpc_options();
  std::shared_ptr<const protocols::RowaAsyncConfig> ccfg = cfg;
  for (std::size_t i = 0; i < topo.num_servers(); ++i) {
    const NodeId n = topo.server(i);
    auto srv = std::make_shared<protocols::RowaAsyncServer>(world, n, ccfg);
    auto sc = std::make_shared<protocols::ServerStampedClient>(
        world, n, quorum::ThresholdQuorum::majority({n}), dep.rpc_options());
    dep.install_front_end(i, std::move(sc));
    protocols::RowaAsyncServer* srv_raw = srv.get();
    dep.server_node(i).add_handler([srv_raw](const sim::Envelope& e) {
      return srv_raw->on_message(e);
    });
    srv->start_anti_entropy();
    dep.retain(std::move(srv));
  }
  dep.install_app_clients();
}

// --- Hermes ----------------------------------------------------------------

void build_hermes(Deployment& dep) {
  sim::World& world = dep.world();
  const auto& topo = world.topology();
  auto cfg = std::make_shared<protocols::HermesConfig>();
  cfg->replicas = topo.servers();
  cfg->rpc = dep.rpc_options();
  cfg->wal = dep.params().wal;
  std::shared_ptr<const protocols::HermesConfig> ccfg = cfg;
  for (std::size_t i = 0; i < topo.num_servers(); ++i) {
    const NodeId n = topo.server(i);
    auto srv = std::make_shared<protocols::HermesServer>(world, n, ccfg);
    auto sc = std::make_shared<protocols::ServerStampedClient>(
        world, n, quorum::ThresholdQuorum::majority({n}), dep.rpc_options());
    dep.install_front_end(i, std::move(sc));
    protocols::HermesServer* srv_raw = srv.get();
    dep.server_node(i).add_handler([srv_raw](const sim::Envelope& e) {
      return srv_raw->on_message(e);
    });
    dep.server_node(i).add_crash_hook([srv_raw] { srv_raw->on_crash(); },
                                      [srv_raw] { srv_raw->on_recover(); });
    dep.retain(std::move(srv));
  }
  dep.install_app_clients();
}

// --- Dynamo ----------------------------------------------------------------

void build_dynamo(Deployment& dep) {
  sim::World& world = dep.world();
  const auto& topo = world.topology();
  auto cfg = std::make_shared<protocols::DynamoConfig>();
  cfg->ring = topo.servers();
  // N/R/W = 3/1/2 (local-read flavored), clamped for tiny test topologies.
  cfg->n = std::min<std::size_t>(3, cfg->ring.size());
  cfg->r = 1;
  cfg->w = std::min<std::size_t>(2, cfg->n);
  cfg->rpc = dep.rpc_options();
  cfg->wal = dep.params().wal;
  std::shared_ptr<const protocols::DynamoConfig> ccfg = cfg;
  for (std::size_t i = 0; i < topo.num_servers(); ++i) {
    const NodeId n = topo.server(i);
    auto srv = std::make_shared<protocols::DynamoServer>(world, n, ccfg);
    auto sc = std::make_shared<protocols::DynamoCoordinator>(world, n, ccfg);
    dep.install_front_end(i, std::move(sc));
    protocols::DynamoServer* srv_raw = srv.get();
    dep.server_node(i).add_handler([srv_raw](const sim::Envelope& e) {
      return srv_raw->on_message(e);
    });
    dep.server_node(i).add_crash_hook([srv_raw] { srv_raw->on_crash(); },
                                      [srv_raw] { srv_raw->on_recover(); });
    srv->start_handoff();
    dep.retain(std::move(srv));
  }
  dep.install_app_clients();
}

// --- registration ----------------------------------------------------------

void add(const char* name, const char* display, Capability caps,
         std::function<void(Deployment&)> build) {
  ProtocolInfo info;
  info.name = name;
  info.display_name = display;
  info.caps = caps;
  info.build = std::move(build);
  Registry::instance().add(std::move(info));
}

void register_builtins() {
  constexpr Capability kDqvlCaps{/*supports_wal=*/true,
                                 /*supports_crash_recovery=*/true,
                                 ConsistencyClass::kRegular};
  add("dqvl", "DQVL", kDqvlCaps,
      [](Deployment& d) { build_dqvl(d, DqvlVariant::kHeadline); });
  add("dqvl-atomic", "DQVL-atomic",
      {true, true, ConsistencyClass::kAtomic},
      [](Deployment& d) { build_dqvl(d, DqvlVariant::kAtomic); });
  add("dq-basic", "DQ-basic", kDqvlCaps,
      [](Deployment& d) { build_dqvl(d, DqvlVariant::kBasic); });
  add("majority", "majority", {true, true, ConsistencyClass::kRegular},
      [](Deployment& d) { build_majority(d); });
  add("pb", "primary/backup", {true, true, ConsistencyClass::kRegular},
      [](Deployment& d) {
        build_primary_backup(d, protocols::PbMode::kAsyncPropagation);
      });
  add("pb-sync", "primary/backup-sync",
      {true, true, ConsistencyClass::kRegular}, [](Deployment& d) {
        build_primary_backup(d, protocols::PbMode::kSyncPropagation);
      });
  add("rowa", "ROWA", {false, false, ConsistencyClass::kRegular},
      [](Deployment& d) { build_rowa(d); });
  add("rowa-async", "ROWA-Async",
      {false, false, ConsistencyClass::kEventual},
      [](Deployment& d) { build_rowa_async(d); });
  add("hermes", "Hermes", {true, true, ConsistencyClass::kAtomic},
      [](Deployment& d) { build_hermes(d); });
  add("dynamo", "Dynamo", {true, true, ConsistencyClass::kEventual},
      [](Deployment& d) { build_dynamo(d); });
}

void ensure_builtins_registered() {
  static const bool once = [] {
    register_builtins();
    return true;
  }();
  (void)once;
}

}  // namespace

const protocols::ProtocolInfo* find_protocol(const std::string& name) {
  ensure_builtins_registered();
  return Registry::instance().find(name);
}

std::vector<const protocols::ProtocolInfo*> all_protocols() {
  ensure_builtins_registered();
  return Registry::instance().list();
}

}  // namespace dq::workload
