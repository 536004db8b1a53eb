// Experiment harness: builds a complete deployment of any protocol over the
// simulated edge topology, drives the closed-loop workload, and collects
// response-time / availability / message-count results.
//
// Protocols are looked up by name in the protocols::Registry; each
// registered factory wires its servers and service clients into the
// Deployment through the install_* helpers below.  The builtin protocols
// are registered in workload/wiring.cpp.
//
// This is the code path behind every response-time and overhead figure
// (DESIGN.md section 4), the integration tests, and the examples.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "obs/metrics.h"
#include "core/iqs_server.h"
#include "core/oqs_server.h"
#include "protocols/registry.h"
#include "protocols/service_client.h"
#include "rpc/qrpc.h"
#include "sim/failure.h"
#include "sim/world.h"
#include "workload/app_client.h"
#include "workload/frontend.h"
#include "workload/history.h"
#include "workload/node.h"
#include "workload/open_loop.h"
#include "workload/quorum_spec.h"

namespace dq::workload {

// Registry access that guarantees the builtin protocols are registered
// (static-library builds would otherwise dead-strip self-registration TUs).
[[nodiscard]] const protocols::ProtocolInfo* find_protocol(
    const std::string& name);
[[nodiscard]] std::vector<const protocols::ProtocolInfo*> all_protocols();

// Display name for dq.report.v1 ("DQVL", "primary/backup", ...), from the
// registry descriptor; "?" for unregistered names.
[[nodiscard]] const char* protocol_name(const std::string& name);
// The five protocols of the paper's Figures 6-9, in figure order.
[[nodiscard]] std::vector<std::string> paper_protocols();

struct ExperimentParams {
  std::string protocol = "dqvl";
  sim::Topology::Params topo{};  // default: 9 servers, 3 clients, paper delays

  // Dual-quorum knobs.
  // IQS shape and size: the first iqs.size() servers form the IQS.
  // QuorumSpec::majority(n) is the paper's configuration; grid(r, c) is the
  // section-6 "future work" ablation.
  QuorumSpec iqs = QuorumSpec::majority(5);
  // |orq|: 1 is the paper's headline (local reads); larger read quorums
  // shrink the OQS write quorum (paper section 6 "future work" ablation).
  std::size_t oqs_read_quorum = 1;
  sim::Duration lease_length = sim::seconds(10);
  // Object leases (paper footnote 4): kTimeInfinity = callbacks (default).
  sim::Duration object_lease_length = sim::kTimeInfinity;
  std::size_t num_volumes = 1;
  std::size_t max_delayed_per_volume = 64;  // epoch-GC bound
  double max_drift = 0.0;
  bool proactive_renewal = false;
  bool batch_renewals = false;  // with proactive_renewal: one batch per IQS member
  bool suppression = true;

  // Workload.
  double write_ratio = 0.05;
  double burstiness = 0.0;  // see AppClient::Params::burstiness
  double locality = 1.0;
  std::size_t requests_per_client = 300;
  sim::Duration think_time = 0;
  sim::Duration op_deadline = sim::kTimeInfinity;
  std::function<ObjectId(Rng&)> choose_object;  // default: own profile

  // Open-loop aggregated workload (workload/open_loop.h): when set, the
  // closed-loop AppClients are replaced by one SiteGenerator per client
  // node, and the deployment always runs on the topology-derived
  // multi-partition plan (world_threads == 0 sizes the worker pool at 1)
  // so that generators emit straight into partition queues.
  std::optional<OpenLoopParams> open_loop;

  // Read-time staleness (age of information): when set, collect() computes
  // per-read ages from the merged history into the staleness.* instruments
  // and the report grows a "staleness" section.  Off by default: the byte
  // layout of existing reports (goldens, checked-in baselines) is preserved.
  bool staleness = false;

  // Fault model.
  double loss = 0.0;
  std::optional<sim::FailureInjector::Params> failures;

  // Durability & crash-restart plane.  `wal` equips the servers of WAL-aware
  // protocols (DQVL family, majority, primary/backup, hermes, dynamo) with
  // a write-ahead log whose sync policy gates write acks; `crashes` drives
  // exponential crash/restart renewal processes over the servers (restart
  // runs each node's recovery hook).  Both default to off, which reproduces
  // the pre-durability behavior bit for bit.
  std::optional<store::WalParams> wal;
  std::optional<sim::CrashInjector::Params> crashes;

  // Intra-trial parallelism (--world-threads).  0 = the one-partition plan.
  // >= 1 runs a closed-loop trial on the topology-derived multi-partition
  // plan with that many worker threads; the plan is derived from the
  // topology alone, so the report is byte-identical at every
  // world_threads >= 1 (but differs from the one-partition plan's
  // schedule).  Failure and crash injection run on either plan.
  std::size_t world_threads = 0;
  // Partition-count override for tests; 0 = par::default_partition_count.
  std::size_t world_partitions = 0;

  std::uint64_t seed = 42;
  sim::Duration max_sim_time = sim::seconds(3600 * 10);
};

struct ExperimentResult {
  // Latencies of the completed operations, added in history order.  all_ms
  // takes its own adds rather than a merge of the other two, so its sum
  // (and mean) accumulates in op order.
  obs::HistogramData read_ms, write_ms, all_ms;
  std::uint64_t completed_reads = 0, completed_writes = 0;
  std::uint64_t rejected_reads = 0, rejected_writes = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  double messages_per_request = 0.0;
  double bytes_per_request = 0.0;
  std::map<std::string, std::uint64_t> message_table;
  History history;
  std::vector<Violation> violations;
  sim::Time sim_duration = 0;
  // Everything the obs registry accumulated during the run (protocol
  // counters, per-node load, phase histograms); see workload/report.h for
  // the JSON rendering.
  obs::MetricsSnapshot metrics;

  [[nodiscard]] std::uint64_t total_requests() const {
    return completed_reads + completed_writes + rejected_reads +
           rejected_writes;
  }
  [[nodiscard]] double availability() const {
    const auto total = total_requests();
    if (total == 0) return 1.0;
    return static_cast<double>(completed_reads + completed_writes) /
           static_cast<double>(total);
  }
};

// A fully wired deployment.  run_experiment() is the one-shot convenience;
// tests and examples use Deployment directly to inject failures mid-run or
// to drive bespoke scenarios.
class Deployment {
 public:
  explicit Deployment(const ExperimentParams& params);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] sim::World& world() { return *world_; }
  [[nodiscard]] const ExperimentParams& params() const { return params_; }

  void start_clients();
  [[nodiscard]] bool clients_done() const;
  // Run until all clients finish (or max_sim_time), then collect results.
  ExperimentResult run();

  [[nodiscard]] std::size_t num_clients() const { return clients_.size(); }
  [[nodiscard]] AppClient& client(std::size_t i) { return *clients_.at(i); }
  // Open-loop generators (empty unless params.open_loop is set).
  [[nodiscard]] std::size_t num_sites() const { return generators_.size(); }
  [[nodiscard]] SiteGenerator& site(std::size_t i) {
    return *generators_.at(i);
  }

  // The composite actor hosted on server i.  Examples and tests append
  // their own handlers here (e.g. to embed a standalone service client on
  // an edge server).
  [[nodiscard]] EdgeNode& server_node(std::size_t i) {
    return *servers_.at(i);
  }
  // The front ends, in install order (one per server under the
  // locality-aware protocols, none under direct-access ones); for tests
  // that inspect the at-most-once table.
  [[nodiscard]] std::size_t num_front_ends() const {
    return front_ends_.size();
  }
  [[nodiscard]] FrontEnd& front_end(std::size_t i) {
    return *front_ends_.at(i);
  }

  // -------------------------------------------------------------------------
  // Wiring helpers for protocol factories (protocols::ProtocolInfo::build).
  // -------------------------------------------------------------------------

  // Embed `sc` as server i's front end: FrontEnd construction, the message
  // handler (registered FIRST, so the service client sees replies before
  // the protocol's server roles), and the crash hook -- the block every
  // build_* function used to repeat.
  void install_front_end(std::size_t server_index,
                         std::shared_ptr<protocols::ServiceClient> sc);
  // Closed-loop application clients that route through the front ends
  // (locality-aware protocols: DQVL, ROWA, ROWA-Async, hermes, dynamo).
  void install_app_clients();
  // Closed-loop clients that each own a direct-access service client
  // (majority, primary/backup: latency is insensitive to edge locality).
  void install_direct_clients(
      const std::function<std::shared_ptr<protocols::ServiceClient>(NodeId)>&
          make);
  // Keep a protocol component alive for the deployment's lifetime.
  void retain(std::shared_ptr<void> component) {
    retained_.push_back(std::move(component));
  }

  [[nodiscard]] AppClient::Params client_params() const;
  [[nodiscard]] rpc::QrpcOptions rpc_options() const;

  // Dual-quorum internals, published by the DQVL factory so tests can poke
  // individual IQS/OQS servers (null/empty under other protocols).
  struct DqvlRuntime {
    std::shared_ptr<const core::DqConfig> cfg;
    std::map<std::uint32_t, std::unique_ptr<core::IqsServer>> iqs;
    std::map<std::uint32_t, std::unique_ptr<core::OqsServer>> oqs;
  };
  void set_dqvl_runtime(DqvlRuntime rt) { dqvl_ = std::move(rt); }
  [[nodiscard]] core::IqsServer* iqs_server(NodeId n);
  [[nodiscard]] core::OqsServer* oqs_server(NodeId n);
  [[nodiscard]] const std::shared_ptr<const core::DqConfig>& dq_config()
      const {
    return dqvl_.cfg;
  }

  ExperimentResult collect();

 private:
  void install_generators(
      const std::function<std::shared_ptr<protocols::ServiceClient>(NodeId)>&
          make);

  ExperimentParams params_;
  std::unique_ptr<sim::World> world_;
  std::unique_ptr<sim::FailureInjector> injector_;
  std::unique_ptr<sim::CrashInjector> crash_injector_;

  std::vector<std::unique_ptr<EdgeNode>> servers_;
  std::vector<std::unique_ptr<AppClient>> clients_;
  std::vector<std::unique_ptr<SiteGenerator>> generators_;

  DqvlRuntime dqvl_;
  // Protocol components owned by the factory that built this deployment
  // (servers, configs); destroyed before world_ (declared after it).
  std::vector<std::shared_ptr<void>> retained_;
  std::vector<std::unique_ptr<FrontEnd>> front_ends_;
};

[[nodiscard]] ExperimentResult run_experiment(const ExperimentParams& params);

}  // namespace dq::workload
