// Figure 7(a): response time per protocol at 5% writes and 90% access
// locality (10% of requests routed to a distant replica -- redirection
// misses / client mobility).
//
// Paper's claims to reproduce:
//   * DQVL still outperforms primary/backup and majority at 90% locality.
//   * ROWA-Async remains optimal (it serves potentially stale data at the
//     distant replica, which the others refuse to do).
#include "bench_util.h"

using namespace dq;
using namespace dq::bench;

int main(int argc, char** argv) {
  Reporter rep("fig7a", argc, argv);
  header("Figure 7(a)", "response time at 5% writes, 90% access locality");
  // 16 wide: "primary/backup" fills a 14-wide cell.
  row({"protocol", "read(ms)", "write(ms)", "overall(ms)", "violations"}, 16);
  const auto protos = workload::paper_protocols();
  std::vector<workload::ExperimentParams> trials;
  for (std::string proto : protos) {
    trials.push_back(response_time_params(proto, 0.05, 0.9, /*seed=*/19));
  }
  const auto results = rep.run_batch(trials);
  double dqvl = 0, pb = 0, maj = 0;
  for (std::size_t i = 0; i < protos.size(); ++i) {
    const std::string proto = protos[i];
    const auto& r = results[i];
    row({workload::protocol_name(proto), fmt(r.read_ms.mean()),
         fmt(r.write_ms.mean()), fmt(r.all_ms.mean()),
         std::to_string(r.violations.size())},
        16);
    if (proto == "dqvl") dqvl = r.all_ms.mean();
    if (proto == "pb") pb = r.all_ms.mean();
    if (proto == "majority") maj = r.all_ms.mean();
  }
  std::printf("\npaper: at 90%% locality DQVL outperforms both strong "
              "baselines\n");
  std::printf("measured overall: DQVL %.1f ms, primary/backup %.1f ms, "
              "majority %.1f ms\n", dqvl, pb, maj);
  return 0;
}
