// Ablation: proactive volume-lease renewal and batching.
//
// Three configurations over a 16-volume namespace with short leases:
//   * on-demand     -- renew on the first miss after expiry (paper default)
//   * proactive     -- per-volume renewal loops ahead of expiry
//   * proactive+batch -- one DqVolRenewBatch per IQS member per round
//
// Proactive renewal trades background messages for removing the periodic
// ~80 ms read-miss hiccup; batching claws the message cost back.
#include "bench_util.h"

using namespace dq;
using namespace dq::bench;

namespace {

workload::ExperimentParams renewal_params(bool proactive, bool batch) {
  workload::ExperimentParams p;
  p.protocol = "dqvl";
  p.lease_length = sim::seconds(1);
  p.num_volumes = 16;
  p.proactive_renewal = proactive;
  p.batch_renewals = batch;
  p.write_ratio = 0.02;
  p.requests_per_client = 500;
  p.think_time = sim::milliseconds(50);  // stretch across many lease periods
  p.seed = 71;
  p.choose_object = [](Rng& rng) { return ObjectId(rng.below(32)); };
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  header("Ablation",
         "volume renewal policy (1 s leases, 16 volumes, read-heavy)");
  row({"policy", "read(ms)", "p99(ms)", "msgs/req", "bytes/req"}, 18);
  struct Cfg {
    const char* name;
    bool proactive, batch;
  };
  const std::vector<Cfg> cfgs{{"on-demand", false, false},
                              {"proactive", true, false},
                              {"proactive+batch", true, true}};
  std::vector<workload::ExperimentParams> trials;
  for (const Cfg& c : cfgs) trials.push_back(renewal_params(c.proactive,
                                                            c.batch));
  const auto results =
      run::run_experiments(trials, jobs_from_argv(argc, argv));
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const auto& r = results[i];
    row({cfgs[i].name, fmt(r.read_ms.mean(), 1),
         fmt(r.read_ms.quantile(0.99), 1), fmt(r.messages_per_request, 1),
         fmt(r.bytes_per_request, 0)},
        18);
  }
  std::printf("\nproactive renewal removes the periodic read-miss hiccup "
              "(p99); batching\nfolds the per-volume renewal traffic into "
              "one message per IQS member per round\n");
  return 0;
}
