// Failover drill: watch the volume-lease machinery handle failures live.
//
// Scenario (driven step by step, printing what happens):
//   1. A customer reads their profile at edge server 0 (leases warm up).
//   2. Server 0 is partitioned away.  A write from server 1 must make the
//      old cached copy unreadable -- with server 0 unreachable it completes
//      by WAITING OUT server 0's volume lease (bounded by L), not by
//      blocking indefinitely.
//   3. Server 0 comes back, renews its volume lease, receives the delayed
//      invalidation queued for it, and serves the NEW value.
//   4. For contrast, the same drill runs on the basic (lease-free) dual
//      quorum protocol: the write stays blocked until server 0 returns.
//
//   $ ./failover_drill
#include <cstdio>

#include "protocols/dq_client.h"
#include "workload/experiment.h"

using namespace dq;
using namespace dq::workload;

namespace {

struct Drill {
  explicit Drill(std::string proto, sim::Duration lease) {
    ExperimentParams p;
    p.protocol = proto;
    p.lease_length = lease;
    p.requests_per_client = 0;
    dep = std::make_unique<Deployment>(p);
    auto& w = dep->world();
    reader = std::make_unique<protocols::DqServiceClient>(
        w, w.topology().server(0), dep->dq_config());
    writer = std::make_unique<protocols::DqServiceClient>(
        w, w.topology().server(1), dep->dq_config());
    dep->server_node(0).add_handler(
        [this](const sim::Envelope& e) { return reader->on_message(e); });
    dep->server_node(1).add_handler(
        [this](const sim::Envelope& e) { return writer->on_message(e); });
  }

  bool spin(bool& flag, sim::Duration cap) {
    const sim::Time deadline = dep->world().now() + cap;
    while (!flag && dep->world().now() < deadline) {
      dep->world().run_for(sim::milliseconds(10));
    }
    return flag;
  }

  std::unique_ptr<Deployment> dep;
  std::unique_ptr<protocols::DqServiceClient> reader, writer;
};

void run_drill(std::string proto, const char* label) {
  const sim::Duration lease = sim::seconds(3);
  Drill d(proto, lease);
  auto& w = d.dep->world();
  const ObjectId profile(7);

  std::printf("---- %s ----\n", label);

  bool done = false;
  d.writer->write(profile, "addr=12 Main St", [&](bool, LogicalClock) {
    done = true;
  });
  d.spin(done, sim::seconds(30));
  std::printf("[%7.2f s] initial write completed\n", sim::to_seconds(w.now()));

  done = false;
  VersionedValue seen;
  d.reader->read(profile, [&](bool, VersionedValue vv) {
    seen = vv;
    done = true;
  });
  d.spin(done, sim::seconds(30));
  std::printf("[%7.2f s] edge server 0 read '%s' (leases warm)\n",
              sim::to_seconds(w.now()), seen.value.c_str());

  w.set_up(w.topology().server(0), false);
  std::printf("[%7.2f s] *** server 0 partitioned away ***\n",
              sim::to_seconds(w.now()));

  done = false;
  const sim::Time t0 = w.now();
  d.writer->write(profile, "addr=99 New Ave", [&](bool, LogicalClock) {
    done = true;
  });
  if (d.spin(done, sim::seconds(20))) {
    std::printf("[%7.2f s] write completed after %.2f s (lease bound: "
                "%.1f s)\n",
                sim::to_seconds(w.now()), sim::to_seconds(w.now() - t0),
                sim::to_seconds(lease));
  } else {
    std::printf("[%7.2f s] write STILL BLOCKED after 20 s (no lease to "
                "expire)\n",
                sim::to_seconds(w.now()));
  }

  w.set_up(w.topology().server(0), true);
  std::printf("[%7.2f s] *** server 0 back online ***\n",
              sim::to_seconds(w.now()));

  done = false;
  d.reader->read(profile, [&](bool, VersionedValue vv) {
    seen = vv;
    done = true;
  });
  d.spin(done, sim::seconds(60));
  std::printf("[%7.2f s] server 0 re-read: '%s' %s\n\n",
              sim::to_seconds(w.now()), seen.value.c_str(),
              seen.value == "addr=99 New Ave"
                  ? "(fresh -- delayed invalidation applied on renewal)"
                  : "(old value -- still regular: the blocked write never "
                    "completed)");
}

}  // namespace

int main() {
  std::printf("== failover drill: bounded write blocking via volume "
              "leases ==\n\n");
  run_drill("dqvl", "DQVL (3 s volume leases)");
  run_drill("dq-basic", "basic dual quorum (no leases)");
  std::printf("with leases, a write blocked by an unreachable reader "
              "completes within ~L;\nwithout them it waits for the reader "
              "-- the paper's core availability argument.\n");
  return 0;
}
