#include "workload/experiment.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/assert.h"
#include "obs/staleness.h"

namespace dq::workload {

const char* protocol_name(const std::string& name) {
  const protocols::ProtocolInfo* info = find_protocol(name);
  return info == nullptr ? "?" : info->display_name.c_str();
}

std::vector<std::string> paper_protocols() {
  return {"dqvl", "pb", "majority", "rowa", "rowa-async"};
}

Deployment::Deployment(const ExperimentParams& params) : params_(params) {
  const protocols::ProtocolInfo* info = find_protocol(params_.protocol);
  DQ_INVARIANT(info != nullptr,
               "unknown protocol (run with --protocol=help for the list)");

  sim::Topology topo_desc(params_.topo);
  sim::World::Parallelism parallel;
  if (params_.open_loop || params_.world_threads >= 1) {
    // The topology-derived multi-partition plan.  Open-loop generators always
    // run on it (world_threads == 0 sizes the pool at one thread); a
    // closed-loop run opts in with world_threads.  The thread count only
    // sizes the worker pool: every byte of the report is independent of it.
    parallel.partitions = params_.world_partitions > 0
                              ? params_.world_partitions
                              : sim::par::default_partition_count(topo_desc);
    parallel.threads = std::max<std::size_t>(params_.world_threads, 1);
  }
  world_ = std::make_unique<sim::World>(std::move(topo_desc), params_.seed,
                                        parallel);
  const auto& topo = world_->topology();

  // Drifting clocks (servers and clients alike).
  if (params_.max_drift > 0.0) {
    Rng clock_rng(params_.seed ^ 0xC10CC10CULL);
    for (std::size_t i = 0; i < topo.num_nodes(); ++i) {
      world_->set_clock(NodeId(static_cast<std::uint32_t>(i)),
                        sim::DriftClock::random(clock_rng, params_.max_drift,
                                                sim::seconds(1)));
    }
  }

  world_->faults().set_loss_probability(params_.loss);

  // One composite actor per server.
  servers_.reserve(topo.num_servers());
  for (std::size_t i = 0; i < topo.num_servers(); ++i) {
    auto node = std::make_unique<EdgeNode>();
    world_->attach(topo.server(i), *node);
    servers_.push_back(std::move(node));
  }

  info->build(*this);

  if (params_.failures) {
    injector_ = std::make_unique<sim::FailureInjector>(*world_,
                                                       *params_.failures);
    injector_->start(topo.servers());
  }
  if (params_.crashes) {
    crash_injector_ = std::make_unique<sim::CrashInjector>(*world_,
                                                           *params_.crashes);
    crash_injector_->start(topo.servers());
  }
}

Deployment::~Deployment() {
  // Injector timers capture `this` of the injectors and live on the world's
  // boundary queue; stop them so a deployment that outlives its run (tests
  // poking the world afterwards) cannot fire into freed injectors, and so
  // up/down churn never reschedules past the experiment horizon.
  if (injector_ != nullptr) injector_->stop();
  if (crash_injector_ != nullptr) crash_injector_->stop();
}

rpc::QrpcOptions Deployment::rpc_options() const {
  rpc::QrpcOptions o;
  if (params_.op_deadline < sim::kTimeInfinity) {
    o.deadline = params_.op_deadline;
  }
  return o;
}

AppClient::Params Deployment::client_params() const {
  AppClient::Params p;
  p.write_ratio = params_.write_ratio;
  p.burstiness = params_.burstiness;
  p.locality = params_.locality;
  p.total_requests = params_.requests_per_client;
  p.think_time = params_.think_time;
  p.op_deadline = params_.op_deadline;
  p.choose_object = params_.choose_object;
  return p;
}

// ---------------------------------------------------------------------------
// Wiring helpers (used by the protocol factories in workload/wiring.cpp)
// ---------------------------------------------------------------------------

void Deployment::install_front_end(std::size_t server_index,
                                   std::shared_ptr<protocols::ServiceClient>
                                       sc) {
  const NodeId n = world_->topology().server(server_index);
  auto fe = std::make_unique<FrontEnd>(*world_, n, std::move(sc));
  FrontEnd* fe_raw = fe.get();
  EdgeNode& node = *servers_.at(server_index);
  node.add_handler([fe_raw](const sim::Envelope& e) {
    return fe_raw->on_message(e);
  });
  node.add_crash_hook([fe_raw] { fe_raw->on_crash(); });
  front_ends_.push_back(std::move(fe));
}

void Deployment::install_app_clients() {
  if (params_.open_loop) {
    install_generators({});
    return;
  }
  const auto& topo = world_->topology();
  for (std::size_t c = 0; c < topo.num_clients(); ++c) {
    const NodeId cn = topo.client(c);
    auto client = std::make_unique<AppClient>(client_params());
    world_->attach(cn, *client);
    clients_.push_back(std::move(client));
  }
}

void Deployment::install_direct_clients(
    const std::function<std::shared_ptr<protocols::ServiceClient>(NodeId)>&
        make) {
  if (params_.open_loop) {
    install_generators(make);
    return;
  }
  const auto& topo = world_->topology();
  for (std::size_t c = 0; c < topo.num_clients(); ++c) {
    const NodeId cn = topo.client(c);
    auto client = std::make_unique<AppClient>(client_params(), make(cn));
    world_->attach(cn, *client);
    clients_.push_back(std::move(client));
  }
}

void Deployment::install_generators(
    const std::function<std::shared_ptr<protocols::ServiceClient>(NodeId)>&
        make) {
  const auto& topo = world_->topology();
  // One alias table per trial, shared across every site (immutable after
  // construction; sites sample it with their own rng streams).
  auto zipf = std::make_shared<const ZipfAliasTable>(
      params_.open_loop->zipf_s, params_.open_loop->objects);
  generators_.reserve(topo.num_clients());
  for (std::size_t c = 0; c < topo.num_clients(); ++c) {
    const NodeId cn = topo.client(c);
    SiteGenerator::Params gp;
    gp.ol = *params_.open_loop;
    gp.write_ratio = params_.write_ratio;
    gp.locality = params_.locality;
    gp.site = c;
    gp.seed = params_.seed;
    gp.zipf = zipf;
    auto gen = make ? std::make_unique<SiteGenerator>(std::move(gp), make(cn))
                    : std::make_unique<SiteGenerator>(std::move(gp));
    world_->attach(cn, *gen);
    generators_.push_back(std::move(gen));
  }
}

// ---------------------------------------------------------------------------
// Running and collecting
// ---------------------------------------------------------------------------

void Deployment::start_clients() {
  for (auto& c : clients_) c->start();
  for (auto& g : generators_) g->start();
}

bool Deployment::clients_done() const {
  for (const auto& c : clients_) {
    if (!c->done()) return false;
  }
  for (const auto& g : generators_) {
    if (!g->done()) return false;
  }
  return true;
}

ExperimentResult Deployment::run() {
  start_clients();
  while (!clients_done() && world_->now() < params_.max_sim_time) {
    world_->run_for(sim::seconds(1));
  }
  return collect();
}

ExperimentResult Deployment::collect() {
  // The merged history shares every client's and site's records (see
  // History::append): nothing is copied, and a later collect lists them
  // all again, with any recorded since.
  ExperimentResult r;
  for (const auto& c : clients_) {
    r.history.append(c->history());
    r.rejected_reads += c->rejected_reads();
    r.rejected_writes += c->rejected_writes();
  }
  for (const auto& g : generators_) {
    r.history.append(g->history());
    r.rejected_reads += g->rejected_reads();
    r.rejected_writes += g->rejected_writes();
  }
  for (const OpRecord& op : r.history.ops()) {
    if (!op.ok) continue;
    const double ms = sim::to_ms(op.completed - op.invoked);
    r.all_ms.add(ms);
    if (op.kind == msg::OpKind::kRead) {
      r.read_ms.add(ms);
      ++r.completed_reads;
    } else {
      r.write_ms.add(ms);
      ++r.completed_writes;
    }
  }
  r.violations = r.history.check_regular();
  r.sim_duration = world_->now();
  r.metrics = world_->metrics().snapshot();
  if (params_.staleness) {
    // Post-hoc age-of-information over the merged history: a pure
    // computation into this result's snapshot, so it is byte-identical at
    // any --jobs/--world-threads, perturbs nothing, and every collect
    // reports the same ages.
    obs::StalenessTracker tracker;
    for (const OpRecord& op : r.history.ops()) {
      if (op.ok && op.kind == msg::OpKind::kWrite) {
        tracker.add_write(op.object.value(), op.completed, op.clock);
      }
    }
    tracker.seal();
    obs::HistogramData& age_hist =
        r.metrics.histograms["staleness.read_age_ms"];
    std::uint64_t& reads = r.metrics.counters["staleness.reads"];
    std::uint64_t& stale = r.metrics.counters["staleness.stale_reads"];
    for (const OpRecord& op : r.history.ops()) {
      if (!op.ok || op.kind != msg::OpKind::kRead) continue;
      const std::int64_t age =
          tracker.read_age(op.object.value(), op.invoked, op.clock);
      age_hist.add(sim::to_ms(age));
      ++reads;
      if (age > 0) ++stale;
    }
  }
  // The message totals are the net.* counters; the per-type table sums the
  // same sends by payload type.
  r.total_messages = r.metrics.counter("net.sent");
  r.total_bytes = r.metrics.counter("net.bytes");
  r.message_table = world_->sent_by_type();
  const auto total = r.total_requests();
  if (total != 0) {
    r.messages_per_request = static_cast<double>(r.total_messages) /
                             static_cast<double>(total);
    r.bytes_per_request = static_cast<double>(r.total_bytes) /
                          static_cast<double>(total);
  }
  return r;
}

core::IqsServer* Deployment::iqs_server(NodeId n) {
  auto it = dqvl_.iqs.find(n.value());
  return it == dqvl_.iqs.end() ? nullptr : it->second.get();
}

core::OqsServer* Deployment::oqs_server(NodeId n) {
  auto it = dqvl_.oqs.find(n.value());
  return it == dqvl_.oqs.end() ? nullptr : it->second.get();
}

ExperimentResult run_experiment(const ExperimentParams& params) {
  Deployment d(params);
  return d.run();
}

}  // namespace dq::workload
