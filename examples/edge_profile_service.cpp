// Edge profile service: the paper's motivating scenario (section 4.1).
//
// A TPC-W-style service replicates per-customer profile objects (name,
// addresses, credit info) on nine edge servers.  Each customer is routed to
// the closest edge server; 95% of accesses read the profile, 5% update the
// shipping address during checkout.  Occasionally a customer is redirected
// to a distant server (redirection miss / travel).
//
// The example runs the same workload over DQVL and the two strong-
// consistency baselines and prints the user-visible latency distribution,
// plus what happened underneath (hits, misses, invalidation traffic).
//
//   $ ./edge_profile_service
#include <cstdio>

#include "workload/experiment.h"

using namespace dq;
using namespace dq::workload;

namespace {

void run_one(std::string proto) {
  ExperimentParams p;
  p.protocol = proto;
  p.write_ratio = 0.05;   // profile updates during checkout
  p.locality = 0.9;       // 10% redirection misses
  p.requests_per_client = 600;
  p.num_volumes = 4;      // profiles sharded across four volumes
  p.seed = 2026;
  // Each customer works on their own profile object most of the time, but
  // occasionally touches a shared object (e.g. a support agent assisting).
  p.choose_object = [](Rng& rng) {
    return rng.chance(0.9) ? ObjectId(rng.below(3))  // own-ish profile
                           : ObjectId(99);           // shared hot object
  };
  const ExperimentResult r = run_experiment(p);

  std::printf("%-16s reads: mean %6.1f ms  p50 %6.1f  p99 %6.1f   "
              "writes: mean %6.1f ms\n",
              protocol_name(proto), r.read_ms.mean(), r.read_ms.quantile(0.50),
              r.read_ms.quantile(0.99), r.write_ms.mean());
  std::printf("%-16s consistency violations: %zu, messages/request: %.1f\n",
              "", r.violations.size(), r.messages_per_request);
  if (proto == "dqvl") {
    std::printf("%-16s DQVL internals: %llu renewals, %llu invalidations, "
                "%llu suppressed-write acks\n", "",
                static_cast<unsigned long long>(
                    r.message_table.count("DqObjRenew")
                        ? r.message_table.at("DqObjRenew")
                        : 0),
                static_cast<unsigned long long>(
                    r.message_table.count("DqInval")
                        ? r.message_table.at("DqInval")
                        : 0),
                static_cast<unsigned long long>(
                    r.message_table.count("DqWriteAck")
                        ? r.message_table.at("DqWriteAck")
                        : 0));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== edge profile service: 9 edge servers, 3 customers, "
              "5%% updates, 90%% locality ==\n\n");
  for (std::string proto : {"dqvl", "majority",
                         "pb"}) {
    run_one(proto);
  }
  std::printf("DQVL serves profile reads from the customer's closest edge "
              "server while keeping\nregular semantics; the strong baselines "
              "pay a WAN round trip on every read.\n");
  return 0;
}
