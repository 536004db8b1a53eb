// Intra-trial parallelism: wall-clock scaling of ONE large simulation on the
// partitioned conservative engine (sim/parallel_world.h).
//
// The workload is a single DQVL trial big enough that partition queues
// dominate round overhead: 64 edge servers, 32 application clients, multiple
// volumes, jitter and loss on.  The trial runs once on the default
// one-partition plan and then on the topology-derived plan at
// --world-threads 1, 2, 4, and 8.  Speedups are reported against that
// plan's own single-thread time (same schedule, so the ratio isolates the
// worker pool) plus the one-partition time for context.
//
// Byte-identity is a HARD CHECK, not a spot check: every thread count must
// render the identical dq.report.v1 document, or the bench fails.  On a
// single-hardware-thread host the timing table is recorded anyway with a
// warning; regenerate BENCH_parallel_world.json on a multi-core machine.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/parallel_world.h"

using namespace dq;
using namespace dq::bench;

namespace {

double wall_ms() {
  // dqlint:allow(det-wall-clock): this bench measures real elapsed time by
  // design; the dq.report.v1 documents it emits stay seed-deterministic.
  using clk = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clk::now().time_since_epoch())
      .count();
}

workload::ExperimentParams big_trial() {
  workload::ExperimentParams p;
  p.protocol = "dqvl";
  p.topo.num_servers = 64;
  p.topo.num_clients = 32;
  p.topo.jitter = 0.1;
  p.iqs = workload::QuorumSpec::majority(5);
  p.num_volumes = 8;
  p.write_ratio = 0.2;
  p.locality = 0.9;
  p.requests_per_client = 400;
  p.loss = 0.01;
  p.seed = 7;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_parallel_world.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0) json_path = a.substr(7);
  }
  const auto hw = static_cast<unsigned>(run::resolve_jobs(0));

  header("Parallel world",
         "one 64-server DQVL trial on the partitioned engine");

  const workload::ExperimentParams base = big_trial();
  const sim::par::PartitionPlan plan = sim::par::make_partition_plan(
      sim::Topology(base.topo), sim::par::default_partition_count(
                                    sim::Topology(base.topo)));
  std::printf("partitions: %zu   lookahead: %.1f ms   nodes: %zu\n\n",
              plan.count, sim::to_ms(plan.lookahead), plan.of_node.size());

  // Reference: the one-partition plan (a different schedule) -- context
  // for what opting in costs/buys.
  double t0 = wall_ms();
  const auto one_partition_result = workload::run_experiment(base);
  const double one_partition_ms = wall_ms() - t0;
  row({"one partition", "ms", fmt(one_partition_ms, 1)}, 18);

  struct Point {
    std::size_t threads;
    double ms;
  };
  std::vector<Point> points;
  std::string report_at1;
  workload::ExperimentParams at1_params;
  bool identical = true;
  row({"partitioned", "threads", "ms", "speedup vs wt=1"}, 18);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    workload::ExperimentParams p = base;
    p.world_threads = threads;
    t0 = wall_ms();
    const auto result = workload::run_experiment(p);
    const double ms = wall_ms() - t0;
    points.push_back({threads, ms});
    const std::string doc = workload::report::to_json(p, result);
    if (threads == 1) {
      report_at1 = doc;
      at1_params = p;
    } else if (doc != report_at1) {
      // Thread count must be unobservable in the report; a mismatch means
      // the engine leaked scheduling into the simulation.
      std::fprintf(stderr,
                   "FAIL: dq.report.v1 differs between --world-threads 1 "
                   "and %zu\n",
                   threads);
      identical = false;
    }
    row({"", std::to_string(threads), fmt(ms, 1),
         fmt(points.front().ms / ms, 2) + "x"},
        18);
  }
  if (!identical) return 1;
  std::printf("\nbyte-identity: PASS (dq.report.v1 identical at "
              "--world-threads 1/2/4/8)\n");
  std::printf("hardware threads: %u\n", hw);
  const bool single_core = hw == 1;
  if (single_core) {
    std::fprintf(stderr,
                 "warning: this host has a single hardware thread; the "
                 "scaling table cannot show parallel speedup -- regenerate "
                 "%s on a multi-core machine\n",
                 json_path.c_str());
  }

  const HostInfo host = host_info();
  const bool comparable = baseline_comparable(json_path, host);
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
    return 0;
  }
  std::fprintf(f, "{\"schema\":\"dq.bench.v1\",\"bench\":\"parallel_world\"");
  std::fprintf(f, ",\"host\":%s", host_json(host, comparable).c_str());
  std::fprintf(f,
               ",\"parallel_world\":{\"servers\":%zu,\"clients\":%zu,"
               "\"volumes\":%zu,\"partitions\":%zu,\"lookahead_ms\":%.1f,"
               "\"serial_engine_ms\":%.1f,\"hardware_threads\":%u,"
               "\"byte_identical\":true",
               base.topo.num_servers, base.topo.num_clients, base.num_volumes,
               plan.count, sim::to_ms(plan.lookahead), one_partition_ms, hw);
  std::fprintf(f, ",\"scaling\":[");
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::fprintf(f,
                 "%s{\"world_threads\":%zu,\"ms\":%.1f,\"speedup\":%.2f}",
                 i == 0 ? "" : ",", points[i].threads, points[i].ms,
                 points.front().ms / points[i].ms);
  }
  std::fprintf(f, "]");
  if (single_core) {
    std::fprintf(f,
                 ",\"warning\":\"single hardware thread: speedups are not "
                 "meaningful; regenerate on a multi-core machine\"");
  }
  std::fprintf(f, "}");
  // One run document: the topology plan's report (identical at every
  // thread count, as checked above).  The one-partition plan's differing
  // schedule is intentionally NOT recorded as a run -- it would read as two
  // conflicting results for one parameter set.
  std::fprintf(f, ",\"runs\":[%s]}\n", report_at1.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  (void)one_partition_result;
  return 0;
}
