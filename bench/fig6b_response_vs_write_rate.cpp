// Figure 6(b): sensitivity of overall response time to the write ratio,
// locality 100%.
//
// Paper's claims to reproduce:
//   * As writes dominate, DQVL's response time approaches the majority
//     quorum's (both pay two quorum rounds per write).
//   * Primary/backup and ROWA writes need one round, so they win at high
//     write ratios; ROWA-Async stays local throughout.
#include "bench_util.h"

using namespace dq;
using namespace dq::bench;

int main(int argc, char** argv) {
  Reporter rep("fig6b", argc, argv);
  header("Figure 6(b)", "avg response time (ms) vs write ratio, locality 100%");
  const auto protos = workload::paper_protocols();
  std::vector<std::string> head{"write%"};
  for (auto p : protos) head.push_back(workload::protocol_name(p));
  row(head, 16);  // "primary/backup" fills a 14-wide cell
  const std::vector<double> writes{0.0, 0.05, 0.1, 0.2, 0.3,
                                   0.5, 0.7,  0.9, 1.0};
  std::vector<workload::ExperimentParams> trials;
  for (double w : writes) {
    for (auto proto : protos) {
      trials.push_back(response_time_params(proto, w, 1.0, /*seed=*/7, 250));
    }
  }
  const auto results = rep.run_batch(trials);
  double dqvl_at_1 = 0, maj_at_1 = 0;
  for (std::size_t wi = 0; wi < writes.size(); ++wi) {
    const double w = writes[wi];
    std::vector<std::string> cells{fmt(100 * w, 0)};
    for (std::size_t pi = 0; pi < protos.size(); ++pi) {
      const auto proto = protos[pi];
      const auto& r = results[wi * protos.size() + pi];
      cells.push_back(fmt(r.all_ms.mean()));
      if (w == 1.0 && proto == "dqvl") {
        dqvl_at_1 = r.all_ms.mean();
      }
      if (w == 1.0 && proto == "majority") {
        maj_at_1 = r.all_ms.mean();
      }
    }
    row(cells, 16);
  }
  std::printf("\npaper: DQVL approaches majority as writes dominate\n");
  std::printf("measured at w=100%%: DQVL %.1f ms vs majority %.1f ms "
              "(ratio %.2f)\n",
              dqvl_at_1, maj_at_1, dqvl_at_1 / maj_at_1);
  return 0;
}
