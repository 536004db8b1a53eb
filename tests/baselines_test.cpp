// Behavior tests for the four baseline protocols: the latency and
// availability characteristics the paper attributes to each, exercised
// through the deployment harness.
#include <gtest/gtest.h>

#include "workload/experiment.h"

namespace dq::workload {
namespace {

ExperimentParams base(std::string proto, std::uint64_t seed = 5) {
  ExperimentParams p;
  p.protocol = proto;
  p.requests_per_client = 100;
  p.seed = seed;
  return p;
}

// ---------------------------------------------------------------------------
// Majority quorum
// ---------------------------------------------------------------------------

TEST(Majority, ReadsPayOneWanRoundTripWritesTwo) {
  ExperimentParams p = base("majority");
  p.write_ratio = 0.5;
  const auto r = run_experiment(p);
  // Read: client->quorum RTT (86 ms) + processing.
  EXPECT_NEAR(r.read_ms.mean(), 87.0, 2.0);
  // Write: clock-read round plus write round.
  EXPECT_NEAR(r.write_ms.mean(), 174.0, 3.0);
  EXPECT_TRUE(r.violations.empty());
}

TEST(Majority, ToleratesMinorityFailure) {
  ExperimentParams p = base("majority");
  p.requests_per_client = 40;
  Deployment dep(p);
  // 4 of 9 down: majority of 5 still reachable.
  for (std::size_t i = 0; i < 4; ++i) {
    dep.world().set_up(dep.world().topology().server(i), false);
  }
  const auto r = dep.run();
  EXPECT_EQ(r.rejected_reads + r.rejected_writes, 0u);
  EXPECT_TRUE(r.violations.empty());
}

TEST(Majority, RejectsWhenMajorityUnreachable) {
  ExperimentParams p = base("majority");
  p.requests_per_client = 5;
  p.op_deadline = sim::seconds(5);
  Deployment dep(p);
  for (std::size_t i = 0; i < 5; ++i) {
    dep.world().set_up(dep.world().topology().server(i), false);
  }
  const auto r = dep.run();
  EXPECT_EQ(r.completed_reads + r.completed_writes, 0u);
  EXPECT_EQ(r.rejected_reads + r.rejected_writes, 15u);
}

// ---------------------------------------------------------------------------
// Primary/backup
// ---------------------------------------------------------------------------

TEST(PrimaryBackup, OneRoundTripForBothOps) {
  ExperimentParams p = base("pb");
  p.write_ratio = 0.5;
  const auto r = run_experiment(p);
  EXPECT_NEAR(r.read_ms.mean(), 87.0, 2.0);
  EXPECT_NEAR(r.write_ms.mean(), 87.0, 2.0);
  EXPECT_TRUE(r.violations.empty());
}

TEST(PrimaryBackup, SyncModeWritesPayBackupRound) {
  ExperimentParams p = base("pb-sync");
  p.write_ratio = 1.0;
  const auto r = run_experiment(p);
  // Client->primary (86) + primary->backups round (80) + processing.
  EXPECT_NEAR(r.write_ms.mean(), 167.0, 3.0);
  EXPECT_TRUE(r.violations.empty());
}

TEST(PrimaryBackup, SyncBackupsHoldEveryAckedWrite) {
  ExperimentParams p = base("pb-sync");
  p.write_ratio = 1.0;
  p.requests_per_client = 20;
  Deployment dep(p);
  const auto r = dep.run();
  ASSERT_TRUE(r.violations.empty());
  EXPECT_EQ(r.completed_writes, 60u);
}

TEST(PrimaryBackup, UnavailableWhenPrimaryDown) {
  ExperimentParams p = base("pb");
  p.requests_per_client = 4;
  p.op_deadline = sim::seconds(5);
  Deployment dep(p);
  // Primary is the last server in this deployment.
  dep.world().set_up(
      dep.world().topology().server(dep.world().topology().num_servers() - 1),
      false);
  const auto r = dep.run();
  EXPECT_EQ(r.completed_reads + r.completed_writes, 0u);
}

// ---------------------------------------------------------------------------
// ROWA
// ---------------------------------------------------------------------------

TEST(Rowa, LocalReadsWanWrites) {
  ExperimentParams p = base("rowa");
  p.write_ratio = 0.5;
  const auto r = run_experiment(p);
  EXPECT_NEAR(r.read_ms.mean(), 9.0, 1.5);    // home RTT + processing
  EXPECT_NEAR(r.write_ms.mean(), 89.0, 2.0);  // write-all round
  EXPECT_TRUE(r.violations.empty());
}

TEST(Rowa, WriteBlocksWhileAnyReplicaDown) {
  ExperimentParams p = base("rowa");
  p.write_ratio = 1.0;
  p.requests_per_client = 3;
  p.op_deadline = sim::seconds(5);
  Deployment dep(p);
  dep.world().set_up(dep.world().topology().server(8), false);
  const auto r = dep.run();
  EXPECT_EQ(r.completed_writes, 0u);
  EXPECT_EQ(r.rejected_writes, 9u);
}

TEST(Rowa, ReadsSurviveAllButOneReplicaDown) {
  ExperimentParams p = base("rowa");
  p.write_ratio = 0.0;
  p.requests_per_client = 10;
  Deployment dep(p);
  // Keep only the clients' home servers (0, 1, 2) up.
  for (std::size_t i = 3; i < 9; ++i) {
    dep.world().set_up(dep.world().topology().server(i), false);
  }
  const auto r = dep.run();
  EXPECT_EQ(r.completed_reads, 30u);
}

// ---------------------------------------------------------------------------
// ROWA-Async
// ---------------------------------------------------------------------------

TEST(RowaAsync, EverythingIsLocal) {
  ExperimentParams p = base("rowa-async");
  p.write_ratio = 0.5;
  const auto r = run_experiment(p);
  EXPECT_NEAR(r.read_ms.mean(), 9.0, 1.5);
  EXPECT_NEAR(r.write_ms.mean(), 9.0, 1.5);
}

TEST(RowaAsync, CanServeStaleReadsAcrossNodes) {
  // Two clients sharing one object through different home servers observe
  // each other's writes only after propagation: the checker must flag at
  // least the race window under heavy interleaving with gossip loss.
  ExperimentParams p = base("rowa-async");
  p.write_ratio = 0.5;
  p.requests_per_client = 150;
  p.loss = 0.4;  // drop most push gossip; anti-entropy heals slowly
  p.choose_object = [](Rng&) { return ObjectId(1); };
  const auto r = run_experiment(p);
  EXPECT_FALSE(r.violations.empty())
      << "ROWA-Async is expected to violate regular semantics here";
}

TEST(RowaAsync, AntiEntropyConvergesReplicasAfterLoss) {
  ExperimentParams p = base("rowa-async");
  p.write_ratio = 1.0;
  p.requests_per_client = 30;
  p.loss = 0.3;
  Deployment dep(p);
  auto r = dep.run();
  EXPECT_EQ(r.completed_writes, 90u);
  // Stop the loss and let anti-entropy finish the job.
  dep.world().faults().set_loss_probability(0.0);
  dep.world().run_for(sim::seconds(60));
  // All replicas converged: a read anywhere returns the same clock.
  ExperimentParams probe = p;
  (void)probe;
  // Convergence is observed indirectly: one more pass of reads everywhere
  // would need fresh clients; instead assert no gossip remains undelivered
  // by checking the world went quiet.
  const auto before = dep.world().sent_messages();
  dep.world().run_for(sim::seconds(10));
  // Only periodic anti-entropy digests should remain (one per server per
  // second, possibly answered).
  const auto after = dep.world().sent_messages();
  EXPECT_LE(after - before, 9u * 10u * 2u);
}

TEST(RowaAsync, RemainsAvailableWithMostReplicasDown) {
  ExperimentParams p = base("rowa-async");
  p.write_ratio = 0.5;
  p.requests_per_client = 20;
  Deployment dep(p);
  for (std::size_t i = 3; i < 9; ++i) {
    dep.world().set_up(dep.world().topology().server(i), false);
  }
  const auto r = dep.run();
  EXPECT_EQ(r.rejected_reads + r.rejected_writes, 0u);
}

// ---------------------------------------------------------------------------
// Cross-protocol response-time ordering (Figure 6(a) invariants)
// ---------------------------------------------------------------------------

TEST(CrossProtocol, ReadLatencyOrderingAtTargetWorkload) {
  std::map<std::string, ExperimentResult> results;
  for (std::string proto : paper_protocols()) {
    ExperimentParams p = base(proto, 17);
    p.write_ratio = 0.05;
    p.requests_per_client = 200;
    results.emplace(proto, run_experiment(p));
  }
  const double dqvl = results.at("dqvl").read_ms.mean();
  const double pb = results.at("pb").read_ms.mean();
  const double maj = results.at("majority").read_ms.mean();
  const double rowa = results.at("rowa").read_ms.mean();
  const double async = results.at("rowa-async").read_ms.mean();

  // Paper: "DQVL provides at least a six times read response time
  // improvement over primary/backup and majority quorum".
  EXPECT_GT(pb / dqvl, 6.0);
  EXPECT_GT(maj / dqvl, 6.0);
  // And is competitive with ROWA / ROWA-Async (within ~2x of local).
  EXPECT_LT(dqvl / rowa, 2.0);
  EXPECT_LT(dqvl / async, 2.0);
}

TEST(CrossProtocol, DqvlWriteApproachesMajorityAtHighWriteRatio) {
  ExperimentParams dq = base("dqvl", 23);
  dq.write_ratio = 1.0;
  dq.requests_per_client = 150;
  ExperimentParams maj = base("majority", 23);
  maj.write_ratio = 1.0;
  maj.requests_per_client = 150;
  const double dq_w = run_experiment(dq).write_ms.mean();
  const double maj_w = run_experiment(maj).write_ms.mean();
  // Pure write bursts suppress invalidations: DQVL == majority's two rounds.
  EXPECT_NEAR(dq_w, maj_w, 10.0);
}

}  // namespace
}  // namespace dq::workload
