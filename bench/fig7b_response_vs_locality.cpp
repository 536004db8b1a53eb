// Figure 7(b): overall response time vs access locality at 5% writes.
//
// Paper's claims to reproduce:
//   * DQVL (and ROWA / ROWA-Async) improve monotonically with locality.
//   * Majority and primary/backup are essentially flat -- they pay WAN
//     round trips to a quorum / the primary regardless of which edge server
//     is closest.
//   * There is a crossover locality above which DQVL beats both strong
//     baselines (the paper reports ~70% on its testbed).
#include "bench_util.h"

using namespace dq;
using namespace dq::bench;

int main(int argc, char** argv) {
  Reporter rep("fig7b", argc, argv);
  header("Figure 7(b)", "avg response time (ms) vs access locality, 5% writes");
  const auto protos = workload::paper_protocols();
  std::vector<std::string> head{"locality%"};
  for (auto p : protos) head.push_back(workload::protocol_name(p));
  row(head, 16);  // "primary/backup" fills a 14-wide cell

  const std::vector<double> locs{0.0, 0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0};
  std::vector<workload::ExperimentParams> trials;
  for (double loc : locs) {
    for (auto proto : protos) {
      trials.push_back(response_time_params(proto, 0.05, loc, /*seed=*/3, 300));
    }
  }
  const auto results = rep.run_batch(trials);
  double crossover = -1;
  for (std::size_t li = 0; li < locs.size(); ++li) {
    const double loc = locs[li];
    std::vector<std::string> cells{fmt(100 * loc, 0)};
    double dqvl = 0, pb = 1e18, maj = 1e18;
    for (std::size_t pi = 0; pi < protos.size(); ++pi) {
      const auto proto = protos[pi];
      const auto& r = results[li * protos.size() + pi];
      cells.push_back(fmt(r.all_ms.mean()));
      if (proto == "dqvl") dqvl = r.all_ms.mean();
      if (proto == "pb") pb = r.all_ms.mean();
      if (proto == "majority") maj = r.all_ms.mean();
    }
    row(cells, 16);
    if (crossover < 0 && dqvl < pb && dqvl < maj) crossover = loc;
  }
  std::printf("\npaper: prefer DQVL over both strong baselines above ~70%% "
              "locality\n");
  if (crossover >= 0) {
    std::printf("measured: DQVL beats both from %.0f%% locality upward\n",
                100 * crossover);
  } else {
    std::printf("measured: no crossover in the sweep\n");
  }
  return 0;
}
