// Ablation: volume lease length L (DESIGN.md section 5.2).
//
// Short leases bound how long a write can block on an unreachable reader
// (write availability) but cost more renewal traffic; long leases amortize
// renewals but extend the blocking window.  The basic dual-quorum protocol
// (L = infinity) is the degenerate end: a blocked write waits for the
// reader to return.
#include "bench_util.h"
#include "protocols/dq_client.h"

using namespace dq;
using namespace dq::bench;

namespace {

struct Probe {
  double blocked_write_ms;   // write latency with the warm reader partitioned
  double msgs_per_request;   // renewal overhead on a read-heavy workload
};

Probe probe(sim::Duration lease, bool basic) {
  // Part 1: blocked-write latency.
  workload::ExperimentParams p;
  p.protocol = basic ? "dq-basic" : "dqvl";
  p.lease_length = lease;
  p.requests_per_client = 0;
  workload::Deployment dep(p);
  auto& w = dep.world();
  // Use the deployment's own front ends via app-style messages is overkill;
  // drive the protocol directly through two embedded clients.
  protocols::DqServiceClient reader(w, w.topology().server(0),
                                    dep.dq_config());
  protocols::DqServiceClient writer(w, w.topology().server(1),
                                    dep.dq_config());
  dep.server_node(0).add_handler(
      [&](const sim::Envelope& e) { return reader.on_message(e); });
  dep.server_node(1).add_handler(
      [&](const sim::Envelope& e) { return writer.on_message(e); });

  auto run_until = [&](bool& flag, sim::Duration cap) {
    const sim::Time deadline = w.now() + cap;
    while (!flag && w.now() < deadline) w.run_for(sim::milliseconds(20));
  };
  bool done = false;
  writer.write(ObjectId(1), "v1", [&](bool, LogicalClock) { done = true; });
  run_until(done, sim::seconds(60));
  done = false;
  reader.read(ObjectId(1), [&](bool, VersionedValue) { done = true; });
  run_until(done, sim::seconds(60));

  w.set_up(w.topology().server(0), false);  // reader vanishes, leases warm
  done = false;
  const sim::Time t0 = w.now();
  writer.write(ObjectId(1), "v2", [&](bool, LogicalClock) { done = true; });
  run_until(done, sim::seconds(120));
  const double blocked_ms =
      done ? sim::to_ms(w.now() - t0) : -1.0;  // -1: still blocked at cap

  // Part 2: renewal overhead on a read-heavy workload.
  workload::ExperimentParams q;
  q.protocol = p.protocol;
  q.lease_length = lease;
  q.write_ratio = 0.01;
  q.requests_per_client = 300;
  q.think_time = sim::milliseconds(50);  // stretch wall-clock across leases
  q.seed = 77;
  const auto r = workload::run_experiment(q);
  return Probe{blocked_ms, r.messages_per_request};
}

}  // namespace

int main(int argc, char** argv) {
  header("Ablation", "volume lease length L: write blocking vs renewal cost");
  row({"lease", "blocked-write(ms)", "msgs/request"}, 20);
  // Each probe drives its own pair of Worlds, so the configurations fan out
  // across --jobs threads like any other trial batch.
  struct Config {
    sim::Duration lease;
    bool basic;
  };
  const std::vector<Config> configs{
      {sim::milliseconds(500), false}, {sim::seconds(1), false},
      {sim::seconds(2), false},        {sim::seconds(5), false},
      {sim::seconds(10), false},       {sim::kTimeInfinity, true}};
  std::vector<Probe> probes(configs.size());
  run::parallel_for_index(
      configs.size(), bench::jobs_from_argv(argc, argv),
      [&](std::size_t i) { probes[i] = probe(configs[i].lease,
                                             configs[i].basic); });
  for (std::size_t i = 0; i + 1 < configs.size(); ++i) {
    const Probe& pr = probes[i];
    row({fmt(sim::to_ms(configs[i].lease), 0) + " ms",
         pr.blocked_write_ms < 0 ? "blocked" : fmt(pr.blocked_write_ms, 0),
         fmt(pr.msgs_per_request, 2)},
        20);
  }
  const Probe& basic = probes.back();
  row({"infinite (basic DQ)",
       basic.blocked_write_ms < 0 ? "blocked (>120 s)"
                                  : fmt(basic.blocked_write_ms, 0),
       fmt(basic.msgs_per_request, 2)},
      20);
  std::printf("\nshorter leases bound write blocking at ~L but renew more "
              "often;\nthe basic protocol (section 3.1) blocks until the "
              "reader returns\n");
  return 0;
}
