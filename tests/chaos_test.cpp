// Chaos suite: long randomized runs combining everything the fault plane
// can do -- node churn, message loss, duplication, delay jitter, clock
// drift, short leases, epoch GC pressure, contention, bursts -- and
// asserting the one property that must survive it all: every completed
// read is regular.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "protocols/registry.h"
#include "workload/experiment.h"
#include "workload/report.h"

namespace dq::workload {
namespace {

using ChaosCase = std::tuple<std::string, std::uint64_t>;

class Chaos : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(Chaos, RegularSemanticsSurviveEverything) {
  const auto [proto, seed] = GetParam();
  ExperimentParams p;
  p.protocol = proto;
  p.seed = seed;
  p.write_ratio = 0.35;
  p.burstiness = 0.6;
  p.locality = 0.85;
  p.requests_per_client = 120;
  p.lease_length = sim::milliseconds(600);
  p.object_lease_length = sim::seconds(3);
  p.num_volumes = 3;
  p.max_delayed_per_volume = 4;   // force epoch GC under churn
  p.max_drift = 0.02;
  p.loss = 0.04;
  p.topo.jitter = 0.3;            // reordering
  p.op_deadline = sim::seconds(25);
  p.failures = sim::FailureInjector::Params::for_unavailability(
      0.06, sim::seconds(15));    // frequent short outages
  p.choose_object = [](Rng& rng) { return ObjectId(rng.below(5)); };

  Deployment dep(p);
  // Sprinkle duplication on top.
  dep.world().faults().set_duplication_probability(0.03);
  dep.start_clients();
  while (!dep.clients_done() &&
         dep.world().now() < sim::seconds(200000)) {
    dep.world().run_for(sim::seconds(2));
  }
  EXPECT_TRUE(dep.clients_done()) << "workload wedged under chaos";
  const auto r = dep.collect();
  EXPECT_TRUE(r.violations.empty())
      << r.violations.size()
      << " violations, first: " << r.violations.front().reason;
  // Progress despite the chaos: most requests complete.
  EXPECT_GT(r.availability(), 0.5);
}

std::vector<ChaosCase> chaos_cases() {
  std::vector<ChaosCase> out;
  for (std::string proto : {"dqvl", "dqvl-atomic",
                         "majority"}) {
    for (std::uint64_t seed : {101ull, 202ull, 303ull}) {
      out.emplace_back(proto, seed);
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Storm, Chaos, ::testing::ValuesIn(chaos_cases()),
    [](const ::testing::TestParamInfo<ChaosCase>& info) {
      std::string name = protocol_name(std::get<0>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_s" + std::to_string(std::get<1>(info.param));
    });

// Crash-restart chaos: the full fault plane -- exponential crash/restart
// renewal processes over every server (real process deaths: WAL tails and
// waiters lost, soft state wiped), unavailability churn, message loss,
// clock drift, reordering -- over WAL-equipped protocols with torn-tail
// faults on.  Every completed read must still be regular: acks are gated
// on durability, recovery bumps epochs, and the grace window rides out
// residual pre-crash leases.
using CrashChaosCase = std::tuple<std::string, std::uint64_t>;

class CrashChaos : public ::testing::TestWithParam<CrashChaosCase> {};

ExperimentParams crash_chaos_params(std::string proto, std::uint64_t seed) {
  ExperimentParams p;
  p.protocol = proto;
  p.seed = seed;
  p.write_ratio = 0.3;
  p.locality = 0.85;
  p.requests_per_client = 100;
  p.lease_length = sim::seconds(1);
  p.num_volumes = 2;
  p.max_delayed_per_volume = 4;
  p.max_drift = 0.02;
  p.loss = 0.03;
  p.topo.jitter = 0.2;
  p.op_deadline = sim::seconds(25);
  store::WalParams w;
  w.policy = store::SyncPolicy::kGroupCommit;
  w.torn_tail_faults = true;
  p.wal = w;
  sim::CrashInjector::Params c;
  c.mean_time_to_crash = sim::seconds(15);
  c.mean_downtime = sim::seconds(1);
  p.crashes = c;
  p.failures = sim::FailureInjector::Params::for_unavailability(
      0.04, sim::seconds(20));
  p.choose_object = [](Rng& rng) { return ObjectId(rng.below(5)); };
  return p;
}

TEST_P(CrashChaos, AllReadsRegularAcrossCrashRestarts) {
  const auto [proto, seed] = GetParam();
  const ExperimentParams p = crash_chaos_params(proto, seed);
  const ExperimentResult r = run_experiment(p);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.size()
      << " violations, first: " << r.violations.front().reason;
  if (find_protocol(proto)->caps.consistency_class ==
      protocols::ConsistencyClass::kAtomic) {
    const auto atomic = r.history.check_atomic();
    EXPECT_TRUE(atomic.empty())
        << atomic.size()
        << " atomic violations, first: " << atomic.front().reason;
  }
  EXPECT_GT(r.availability(), 0.5);
  // Crashes actually happened and were recovered from: every protocol
  // counts its restarts in a `*.recoveries` counter.
  std::uint64_t recoveries = 0;
  for (const auto& [name, value] : r.metrics.counters) {
    if (name.ends_with(".recoveries")) recoveries += value;
  }
  EXPECT_GT(recoveries, 0u) << "no server ever crash-restarted";
}

// Every registered protocol that claims crash recovery and a consistency
// guarantee stronger than eventual.
std::vector<CrashChaosCase> crash_chaos_cases() {
  std::vector<CrashChaosCase> out;
  for (const protocols::ProtocolInfo* info : all_protocols()) {
    if (!info->caps.supports_crash_recovery ||
        info->caps.consistency_class ==
            protocols::ConsistencyClass::kEventual) {
      continue;
    }
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
      out.emplace_back(info->name, seed);
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    CrashStorm, CrashChaos, ::testing::ValuesIn(crash_chaos_cases()),
    [](const ::testing::TestParamInfo<CrashChaosCase>& info) {
      std::string name = protocol_name(std::get<0>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_s" + std::to_string(std::get<1>(info.param));
    });

// The torn-tail path (a partially-written record dropped at replay) must
// actually be exercised, and stay regular, or the matrix could silently
// stop covering it.  Scanning a seed range rather than a picked seed keeps
// the check from depending on one run's schedule.
TEST(CrashChaosTorn, TornTailPathIsExercised) {
  std::uint64_t torn = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const ExperimentResult r =
        run_experiment(crash_chaos_params("dqvl", seed));
    EXPECT_TRUE(r.violations.empty()) << "seed " << seed;
    torn += r.metrics.counter("wal.replay.torn_dropped");
  }
  EXPECT_GT(torn, 0u) << "no DQVL chaos seed in 1..40 dropped a torn record";
}

// Open-loop chaos: one generator per site, each aggregating a thousand
// logical clients, against DQVL under loss, unavailability churn,
// crash/restart and a group-commit WAL.  Fault transitions are
// round-boundary events, so the report is byte-identical at any
// --world-threads; every completed read is regular, and every offered
// request ends up completed or failed.
ExperimentParams open_loop_chaos_params() {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.seed = 17;
  p.write_ratio = 0.2;
  p.locality = 0.9;
  p.lease_length = sim::seconds(1);
  p.loss = 0.02;
  p.topo.jitter = 0.1;
  p.op_deadline = sim::seconds(5);
  store::WalParams w;
  w.policy = store::SyncPolicy::kGroupCommit;
  p.wal = w;
  sim::CrashInjector::Params c;
  c.mean_time_to_crash = sim::seconds(8);
  c.mean_downtime = sim::milliseconds(500);
  p.crashes = c;
  p.failures = sim::FailureInjector::Params::for_unavailability(
      0.04, sim::seconds(8));
  OpenLoopParams ol;
  ol.clients_per_site = 1000;
  ol.client_rate_hz = 0.1;  // 100 Hz per site
  ol.objects = 64;
  ol.horizon = sim::seconds(4);
  ol.drain = sim::seconds(10);
  p.open_loop = ol;
  return p;
}

TEST(OpenLoopChaos, ByteIdenticalRegularAndFullyAccounted) {
  ExperimentParams p = open_loop_chaos_params();
  p.world_threads = 1;
  const ExperimentResult r = run_experiment(p);
  const std::string at1 = report::to_json(p, r);
  p.world_threads = 4;
  EXPECT_EQ(at1, report::to_json(p, run_experiment(p)))
      << "open-loop chaos report diverges at --world-threads 4";

  EXPECT_TRUE(r.violations.empty())
      << r.violations.size()
      << " violations, first: " << r.violations.front().reason;
  const std::uint64_t offered = r.metrics.counter("open_loop.offered");
  EXPECT_GT(offered, 1000u);
  EXPECT_EQ(offered, r.metrics.counter("open_loop.completed") +
                         r.metrics.counter("open_loop.failed"));
  EXPECT_GT(r.metrics.counter("iqs.recoveries") +
                r.metrics.counter("oqs.recoveries"),
            0u)
      << "no server ever crash-restarted";
}

// The same cell with network duplication on top, as ChaosExtra runs closed
// loop: a duplicated request can reach a front end while its first copy is
// in flight (dropped) or after it completed (the cached reply is resent),
// and a duplicated reply completes nothing twice.
TEST(OpenLoopChaos, DuplicationStaysRegularAndFullyAccounted) {
  ExperimentParams p = open_loop_chaos_params();
  const auto run_at = [&p](std::size_t threads) {
    p.world_threads = threads;
    Deployment dep(p);
    dep.world().faults().set_duplication_probability(0.03);
    dep.start_clients();
    while (!dep.clients_done() && dep.world().now() < sim::seconds(60)) {
      dep.world().run_for(sim::seconds(1));
    }
    EXPECT_TRUE(dep.clients_done()) << "open loop wedged under duplication";
    return dep.collect();
  };
  const ExperimentResult r = run_at(1);
  p.world_threads = 1;
  const std::string at1 = report::to_json(p, r);
  const ExperimentResult r4 = run_at(4);
  EXPECT_EQ(at1, report::to_json(p, r4))
      << "open-loop duplication report diverges at --world-threads 4";

  EXPECT_TRUE(r.violations.empty())
      << r.violations.size()
      << " violations, first: " << r.violations.front().reason;
  const std::uint64_t offered = r.metrics.counter("open_loop.offered");
  EXPECT_GT(offered, 1000u);
  EXPECT_EQ(offered, r.metrics.counter("open_loop.completed") +
                         r.metrics.counter("open_loop.failed"));
  EXPECT_EQ(r.history.size(), offered);
  EXPECT_GT(r.metrics.counter("iqs.recoveries") +
                r.metrics.counter("oqs.recoveries"),
            0u)
      << "no server ever crash-restarted";
}

// Every reply that can complete a pending read re-checks it, so no pending
// read ever holds condition C between events: a read that could be
// answered never sits waiting for its retry timer.  Multiple volumes,
// finite object leases, batched proactive renewal, loss, and crash/restart
// (whose recovery advances epochs) make both the object-grant and the
// volume-grant re-check rules matter here.
TEST(OpenLoopChaos, NoPendingReadHoldsConditionC) {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.seed = 23;
  p.write_ratio = 0.2;
  p.num_volumes = 4;
  p.object_lease_length = sim::seconds(2);
  p.lease_length = sim::seconds(1);
  p.proactive_renewal = true;
  p.batch_renewals = true;
  p.loss = 0.02;
  p.topo.jitter = 0.1;
  p.op_deadline = sim::seconds(5);
  store::WalParams w;
  w.policy = store::SyncPolicy::kGroupCommit;
  p.wal = w;
  sim::CrashInjector::Params c;
  c.mean_time_to_crash = sim::seconds(6);
  c.mean_downtime = sim::milliseconds(500);
  p.crashes = c;
  OpenLoopParams ol;
  ol.clients_per_site = 1000;
  ol.client_rate_hz = 0.1;  // 100 Hz per site
  ol.objects = 64;
  ol.horizon = sim::seconds(3);
  ol.drain = sim::seconds(10);
  p.open_loop = ol;

  Deployment dep(p);
  sim::World& world = dep.world();
  dep.start_clients();
  std::size_t checked = 0;
  while (!dep.clients_done() && world.now() < sim::seconds(60)) {
    world.run_for(sim::milliseconds(10));
    for (std::size_t i = 0; i < world.topology().num_servers(); ++i) {
      const NodeId n = world.topology().server(i);
      const core::OqsServer* oqs = dep.oqs_server(n);
      ASSERT_NE(oqs, nullptr);
      for (ObjectId o : oqs->pending_objects()) {
        ASSERT_FALSE(oqs->condition_c(o))
            << "a pending read of object " << o.value() << " at node "
            << n.value() << " holds C at t=" << sim::to_ms(world.now())
            << " ms";
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100u) << "too few pending reads to mean anything";
  const ExperimentResult r = dep.collect();
  EXPECT_TRUE(r.violations.empty());
  EXPECT_GT(r.metrics.counter("oqs.recoveries") +
                r.metrics.counter("iqs.recoveries"),
            0u)
      << "no server ever crash-restarted";
}

// Crash-restart churn (process deaths, not just unreachability): OQS soft
// state evaporates and must be re-derived; IQS durable state survives.
TEST(ChaosExtra, CrashRestartChurn) {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.seed = 404;
  p.write_ratio = 0.3;
  p.requests_per_client = 100;
  p.lease_length = sim::seconds(1);
  p.op_deadline = sim::seconds(20);
  p.choose_object = [](Rng& rng) { return ObjectId(rng.below(4)); };
  Deployment dep(p);
  auto& w = dep.world();
  // Every 3 seconds, crash-restart a random server.
  std::function<void()> churn = [&] {
    const auto idx = w.rng().below(w.topology().num_servers());
    const NodeId n = w.topology().server(idx);
    w.crash(n);
    w.schedule_boundary(sim::milliseconds(500), [&w, n] { w.restart(n); });
    w.schedule_boundary(sim::seconds(3), churn);
  };
  w.schedule_boundary(sim::seconds(2), churn);

  dep.start_clients();
  while (!dep.clients_done() && w.now() < sim::seconds(100000)) {
    w.run_for(sim::seconds(2));
  }
  EXPECT_TRUE(dep.clients_done());
  const auto r = dep.collect();
  EXPECT_TRUE(r.violations.empty())
      << "first: " << r.violations.front().reason;
}

}  // namespace
}  // namespace dq::workload
