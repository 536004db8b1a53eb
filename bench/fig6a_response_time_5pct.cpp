// Figure 6(a): response time per protocol at the target workload -- 5%
// writes (the TPC-W profile-object update rate), 100% access locality.
//
// Paper's claims to reproduce:
//   * DQVL reads are >= 6x faster than primary/backup and majority quorum.
//   * DQVL read time is comparable to ROWA / ROWA-Async (local reads).
//   * Strong consistency is preserved (checker reports zero violations).
#include "bench_util.h"

using namespace dq;
using namespace dq::bench;

int main(int argc, char** argv) {
  Reporter rep("fig6a", argc, argv);
  header("Figure 6(a)", "response time at 5% write ratio, locality 100%");
  // 16 wide: "primary/backup" fills a 14-wide cell.
  row({"protocol", "read(ms)", "write(ms)", "overall(ms)", "p99(ms)",
       "violations"},
      16);
  const auto protos = workload::paper_protocols();
  std::vector<workload::ExperimentParams> trials;
  for (std::string proto : protos) {
    trials.push_back(response_time_params(proto, 0.05, 1.0));
  }
  const auto results = rep.run_batch(trials);
  double dqvl_read = 0, pb_read = 0, maj_read = 0;
  for (std::size_t i = 0; i < protos.size(); ++i) {
    const std::string proto = protos[i];
    const auto& r = results[i];
    row({workload::protocol_name(proto), fmt(r.read_ms.mean()),
         fmt(r.write_ms.mean()), fmt(r.all_ms.mean()),
         fmt(r.all_ms.quantile(0.99)), std::to_string(r.violations.size())},
        16);
    if (proto == "dqvl") dqvl_read = r.read_ms.mean();
    if (proto == "pb") pb_read = r.read_ms.mean();
    if (proto == "majority") maj_read = r.read_ms.mean();
  }
  std::printf("\npaper: DQVL read >= 6x better than primary/backup and "
              "majority\n");
  std::printf("measured: %.1fx vs primary/backup, %.1fx vs majority\n",
              pb_read / dqvl_read, maj_read / dqvl_read);
  return 0;
}
