// Threaded smoke over the partitioned (conservative parallel) world engine:
// under the tsan preset every translation unit carries -fsanitize=thread, so
// any data race inside a single parallel World -- partition workers touching
// each other's queues, an unlaned metrics instrument, a mailbox read before
// the round barrier -- aborts the ctest run.  In the default build it
// degrades to a fast --world-threads 1 vs 4 golden-comparison determinism
// check (the same property tests/parallel_world_test.cpp holds in-depth).
#include <cstdio>
#include <string>

#include "workload/experiment.h"
#include "workload/report.h"

namespace {

dq::workload::ExperimentParams smoke_params(const std::string& proto) {
  dq::workload::ExperimentParams p;
  p.protocol = proto;
  p.topo.num_servers = 12;
  p.topo.num_clients = 6;
  p.topo.jitter = 0.1;
  p.write_ratio = 0.2;
  p.locality = 0.9;
  p.requests_per_client = 40;
  p.loss = 0.02;
  p.seed = 7;
  return p;
}

std::string render(const std::string& proto, std::size_t world_threads) {
  dq::workload::ExperimentParams p = smoke_params(proto);
  p.world_threads = world_threads;
  return dq::workload::report::to_json(p, dq::workload::run_experiment(p));
}

// Both injectors plus a WAL: every unreachability and crash/restart
// transition is a round-boundary event, run on the coordinating thread
// between rounds while the workers wait at the barrier -- the hand-off the
// tsan preset should watch.
std::string render_injection(std::size_t world_threads) {
  dq::workload::ExperimentParams p = smoke_params("dqvl");
  p.failures = dq::sim::FailureInjector::Params::for_unavailability(
      0.05, dq::sim::seconds(10));
  p.crashes = dq::sim::CrashInjector::Params{dq::sim::seconds(5),
                                             dq::sim::milliseconds(500)};
  p.wal = dq::store::WalParams{};
  p.op_deadline = dq::sim::seconds(10);
  p.world_threads = world_threads;
  return dq::workload::report::to_json(p, dq::workload::run_experiment(p));
}

// Open-loop generators emit into partition-local queues from worker
// threads, so they are exactly the code the tsan preset should watch: the
// batch timers, the shared (const) alias table, and the per-site metric
// lanes all run inside the worker pool.
dq::workload::ExperimentParams open_loop_smoke_params() {
  dq::workload::ExperimentParams p;
  p.protocol = "dqvl";
  p.topo.num_servers = 6;
  p.topo.num_clients = 3;
  p.topo.jitter = 0.1;
  p.write_ratio = 0.2;
  p.locality = 0.9;
  p.loss = 0.02;
  p.seed = 7;
  dq::workload::OpenLoopParams ol;
  ol.clients_per_site = 500;
  ol.client_rate_hz = 0.1;
  ol.objects = 512;
  ol.diurnal_amplitude = 0.4;
  ol.diurnal_period = dq::sim::seconds(1);
  ol.horizon = dq::sim::seconds(1);
  p.open_loop = ol;
  return p;
}

std::string render_open_loop(std::size_t world_threads) {
  dq::workload::ExperimentParams p = open_loop_smoke_params();
  p.world_threads = world_threads;
  return dq::workload::report::to_json(p, dq::workload::run_experiment(p));
}

}  // namespace

int main() {
  // DQVL exercises the dual-quorum machinery; Hermes and Dynamo are the
  // registry baselines with the most timer/retry traffic (engine
  // retransmissions, replay timers, handoff loops) under the partitioned
  // engine.
  for (const char* proto : {"dqvl", "hermes", "dynamo"}) {
    const std::string at1 = render(proto, 1);
    const std::string at4 = render(proto, 4);
    if (at1 != at4) {
      std::fprintf(stderr,
                   "tsan_world_smoke: %s --world-threads 1 and 4 reports "
                   "differ -- the partitioned engine's schedule leaked "
                   "thread scheduling\n",
                   proto);
      return 1;
    }
  }
  if (render_injection(1) != render_injection(4)) {
    std::fprintf(stderr,
                 "tsan_world_smoke: dqvl with failure/crash injection "
                 "--world-threads 1 and 4 reports differ -- a round-boundary "
                 "event leaked thread scheduling\n");
    return 1;
  }
  const std::string ol1 = render_open_loop(1);
  const std::string ol4 = render_open_loop(4);
  if (ol1 != ol4) {
    std::fprintf(stderr,
                 "tsan_world_smoke: open-loop --world-threads 1 and 4 "
                 "reports differ -- generator emission leaked thread "
                 "scheduling\n");
    return 1;
  }
  std::printf(
      "tsan_world_smoke: dq.report.v1 byte-identical at --world-threads 1 "
      "and 4 for dqvl, hermes, dynamo, dqvl with injection, and the "
      "open-loop workload\n");
  return 0;
}
