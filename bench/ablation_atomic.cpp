// Ablation: atomic vs regular semantics (paper section 6: "modifying DQVL
// to provide different consistency semantics (e.g. atomic semantics) and
// comparing the cost difference").
//
// The atomic client (DqAtomicServiceClient, protocols/dq_client.h) confirms
// every read's value at an IQS write quorum before returning.  This bench quantifies the cost:
// reads lose their locality (one WAN write-quorum round each), writes are
// unchanged, and message counts rise accordingly.
#include "bench_util.h"

using namespace dq;
using namespace dq::bench;

int main(int argc, char** argv) {
  header("Ablation", "regular DQVL vs atomic DQVL (read write-back)");
  row({"write%", "variant", "read(ms)", "write(ms)", "overall", "msgs/req"},
      12);
  const std::vector<double> writes{0.05, 0.3};
  const std::string variants[] = {"dqvl",
                                         "dqvl-atomic"};
  std::vector<workload::ExperimentParams> trials;
  for (double w : writes) {
    for (std::string proto : variants) {
      workload::ExperimentParams p;
      p.protocol = proto;
      p.write_ratio = w;
      p.requests_per_client = 300;
      p.seed = 21;
      trials.push_back(p);
    }
  }
  const auto results =
      run::run_experiments(trials, jobs_from_argv(argc, argv));
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const auto& r = results[i];
    row({fmt(100 * trials[i].write_ratio, 0),
         trials[i].protocol == "dqvl" ? "regular"
                                                         : "atomic",
         fmt(r.read_ms.mean()), fmt(r.write_ms.mean()),
         fmt(r.all_ms.mean()), fmt(r.messages_per_request, 1)},
        12);
  }
  std::printf("\natomic semantics costs every read one IQS write-quorum "
              "confirmation round\n(~80 ms RTT + 2|iwq| messages); this is "
              "the price of ruling out new-old\nread inversions that regular "
              "semantics permits\n");
  return 0;
}
