// Crash-recovery subsystem tests: WAL-backed IQS recovery (epoch bump +
// grace window), replay of durable store state, and the minimal recovery
// paths of the baseline protocols.
//
// The acceptance property for DQVL: a crash wipes the delayed-invalidation
// queues WITHOUT persisting them, and recovery compensates by advancing the
// epoch of every (volume, node) lease pair the log knows about -- so every
// pre-crash object lease is implicitly invalid and no stale read can ever
// be served off one.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/iqs_server.h"
#include "workload/experiment.h"
#include "workload/flags.h"

namespace dq::workload {
namespace {

ExperimentParams dqvl_wal_params() {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.seed = 77;
  p.write_ratio = 0.3;
  p.requests_per_client = 80;
  p.lease_length = sim::seconds(2);
  p.op_deadline = sim::seconds(30);
  p.wal = store::WalParams{};  // group commit defaults
  p.choose_object = [](Rng& rng) { return ObjectId(rng.below(4)); };
  return p;
}

// The params a dqsim command line (without the program name) selects.
ExperimentParams params_from_args(std::vector<std::string> args) {
  std::vector<char*> argv{const_cast<char*>("dqsim")};
  for (std::string& a : args) argv.push_back(a.data());
  std::string error;
  auto flags =
      parse_flag_map(static_cast<int>(argv.size()), argv.data(), &error);
  const auto p = params_from_flags(flags, &error);
  EXPECT_TRUE(p.has_value()) << error;
  return p.value_or(ExperimentParams{});
}

// Run the closed-loop workload to completion so leases exist and every
// acked write's WAL record has long since been flushed.
void run_to_completion(Deployment& dep) {
  dep.start_clients();
  while (!dep.clients_done() &&
         dep.world().now() < sim::seconds(100000)) {
    dep.world().run_for(sim::seconds(2));
  }
  ASSERT_TRUE(dep.clients_done()) << "workload wedged";
}

TEST(IqsRecovery, EpochBumpInvalidatesPreCrashObjectLeases) {
  ExperimentParams p = dqvl_wal_params();
  Deployment dep(p);
  run_to_completion(dep);

  const NodeId iqs_node = dep.world().topology().server(0);
  core::IqsServer* iqs = dep.iqs_server(iqs_node);
  ASSERT_NE(iqs, nullptr);

  // Snapshot every (volume, OQS node) pair that held a lease pre-crash.
  const VolumeId v0(0);
  std::map<NodeId, msg::Epoch> before;
  for (NodeId j : dep.world().topology().servers()) {
    if (iqs->lease_expiry(v0, j) != 0) before[j] = iqs->epoch_of(v0, j);
  }
  ASSERT_FALSE(before.empty()) << "no volume leases were ever granted";

  dep.world().crash(iqs_node);
  dep.world().run_for(sim::milliseconds(500));
  dep.world().restart(iqs_node);

  // The delayed queues are gone without ever being persisted; the epoch
  // advance is what makes that safe.
  for (const auto& [j, e] : before) {
    EXPECT_GT(iqs->epoch_of(v0, j), e)
        << "node " << j.value() << ": recovery must advance the epoch past "
        << "every pre-crash grant";
    EXPECT_EQ(iqs->delayed_queue_size(v0, j), 0u);
    EXPECT_FALSE(iqs->lease_valid(v0, j));
  }
  const auto snap = dep.world().metrics().snapshot();
  EXPECT_EQ(snap.counter("iqs.recoveries"), 1u);
}

TEST(IqsRecovery, ReplayRestoresDurableValuesAndClocks) {
  ExperimentParams p = dqvl_wal_params();
  Deployment dep(p);
  run_to_completion(dep);

  const NodeId iqs_node = dep.world().topology().server(0);
  core::IqsServer* iqs = dep.iqs_server(iqs_node);
  ASSERT_NE(iqs, nullptr);

  std::map<std::uint64_t, std::pair<Value, LogicalClock>> before;
  for (std::uint64_t o = 0; o < 4; ++o) {
    const LogicalClock lc = iqs->last_write_clock(ObjectId(o));
    if (!(lc == LogicalClock::zero())) {
      before[o] = {iqs->value_of(ObjectId(o)), lc};
    }
  }
  ASSERT_FALSE(before.empty()) << "no writes reached the IQS node";

  dep.world().crash(iqs_node);
  dep.world().run_for(sim::milliseconds(200));
  dep.world().restart(iqs_node);

  for (const auto& [o, vv] : before) {
    EXPECT_EQ(iqs->value_of(ObjectId(o)), vv.first) << "object " << o;
    EXPECT_EQ(iqs->last_write_clock(ObjectId(o)), vv.second)
        << "object " << o;
  }
}

TEST(IqsRecovery, GraceWindowOpensOnRecoveryAndCloses) {
  ExperimentParams p = dqvl_wal_params();
  Deployment dep(p);
  run_to_completion(dep);

  const NodeId iqs_node = dep.world().topology().server(0);
  core::IqsServer* iqs = dep.iqs_server(iqs_node);
  ASSERT_NE(iqs, nullptr);
  EXPECT_FALSE(iqs->in_recovery_grace());

  dep.world().crash(iqs_node);
  dep.world().run_for(sim::milliseconds(100));
  dep.world().restart(iqs_node);
  EXPECT_TRUE(iqs->in_recovery_grace())
      << "a recovered node must distrust its wiped lease bookkeeping";

  // Two padded lease lengths later every pre-crash volume lease has expired
  // at its holder and the window closes.
  dep.world().run_for(2 * p.lease_length + sim::seconds(1));
  EXPECT_FALSE(iqs->in_recovery_grace());
}

TEST(IqsRecovery, WithoutWalCrashKeepsLegacyDurableFiction) {
  ExperimentParams p = dqvl_wal_params();
  p.wal.reset();
  Deployment dep(p);
  run_to_completion(dep);

  const NodeId iqs_node = dep.world().topology().server(0);
  core::IqsServer* iqs = dep.iqs_server(iqs_node);
  ASSERT_NE(iqs, nullptr);
  const VolumeId v0(0);
  std::map<NodeId, msg::Epoch> before;
  for (NodeId j : dep.world().topology().servers()) {
    if (iqs->lease_expiry(v0, j) != 0) before[j] = iqs->epoch_of(v0, j);
  }
  ASSERT_FALSE(before.empty());

  dep.world().crash(iqs_node);
  dep.world().run_for(sim::milliseconds(100));
  dep.world().restart(iqs_node);

  // Legacy model: state behaves as if written through, epochs unchanged.
  for (const auto& [j, e] : before) EXPECT_EQ(iqs->epoch_of(v0, j), e);
  EXPECT_FALSE(iqs->in_recovery_grace());
}

// Under crash/restart churn driven by the injector, every completed read
// stays regular and recoveries actually happen (the real oracle for "no
// acked write was lost" is the history checker).
TEST(CrashInjection, DqvlStaysRegularUnderCrashChurn) {
  ExperimentParams p = dqvl_wal_params();
  p.requests_per_client = 120;
  sim::CrashInjector::Params c;
  c.mean_time_to_crash = sim::seconds(20);
  c.mean_downtime = sim::seconds(1);
  p.crashes = c;
  const ExperimentResult r = run_experiment(p);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.size()
      << " violations, first: " << r.violations.front().reason;
  EXPECT_GT(r.metrics.counter("iqs.recoveries") +
                r.metrics.counter("oqs.recoveries"),
            0u);
  EXPECT_GT(r.availability(), 0.5);
}

TEST(CrashInjection, MajorityRecoversFromItsWal) {
  ExperimentParams p = dqvl_wal_params();
  p.protocol = "majority";
  p.requests_per_client = 120;
  sim::CrashInjector::Params c;
  c.mean_time_to_crash = sim::seconds(20);
  c.mean_downtime = sim::seconds(1);
  p.crashes = c;
  const ExperimentResult r = run_experiment(p);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.size()
      << " violations, first: " << r.violations.front().reason;
  EXPECT_GT(r.metrics.counter("proto.majority.recoveries"), 0u);
}

TEST(CrashInjection, PrimaryBackupRecoversFromItsWal) {
  ExperimentParams p = dqvl_wal_params();
  p.protocol = "pb-sync";
  p.requests_per_client = 120;
  sim::CrashInjector::Params c;
  c.mean_time_to_crash = sim::seconds(30);
  c.mean_downtime = sim::seconds(1);
  p.crashes = c;
  const ExperimentResult r = run_experiment(p);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.size()
      << " violations, first: " << r.violations.front().reason;
  EXPECT_GT(r.metrics.counter("proto.pb.recoveries"), 0u);
}

// pb-sync with an op deadline: the primary's sync propagation to the backups
// carries the deployment's rpc options, so under unavailability or crashes it
// can expire.  The primary then sends no ack, the client's own retries and
// deadline settle the write, and every run still finishes regular.  The
// configs are dqsim command lines.
TEST(CrashInjection, PrimaryBackupSyncToleratesOpDeadlines) {
  const std::vector<std::vector<std::string>> configs = {
      {"--protocol=pb-sync", "--node-unavail=0.05", "--deadline-ms=2000",
       "--seed=7"},
      {"--protocol=pb-sync", "--crash-mttc-ms=20000", "--wal=sync",
       "--deadline-ms=1000", "--seed=7"},
      {"--protocol=pb-sync", "--node-unavail=0.02", "--deadline-ms=3000",
       "--seed=11"},
  };
  for (const std::vector<std::string>& args : configs) {
    const ExperimentParams p = params_from_args(args);
    const ExperimentResult r = run_experiment(p);
    EXPECT_EQ(r.total_requests(),
              p.topo.num_clients * p.requests_per_client)
        << args[1];
    EXPECT_TRUE(r.violations.empty())
        << args[1] << ": " << r.violations.size()
        << " violations, first: " << r.violations.front().reason;
  }
}

// Inside its grace window a recovered IQS node must not trust case (a') of
// node_safe -- "j acked an invalidation after the object's last renewal" --
// for an invalidation below the clock mark it recovered.  The crash wiped
// last_read, and an OQS node may still hold a pre-crash grant at the
// invalidation's own clock, which such an invalidation leaves valid.  On
// these seeds an atomic read's write-back replayed a pre-crash clock to a
// recovered node, a later write was then suppressed on (a'), and an OQS
// node served the older value as a hit.
TEST(CrashInjection, RecoveredIqsNodeKeepsPreCrashGrantsInvalidated) {
  for (const char* seed : {"--seed=2", "--seed=9"}) {
    const ExperimentParams p =
        params_from_args({"--protocol=dqvl-atomic", "--crash-mttc-ms=8000",
                          "--wal=group", "--requests=100", seed});
    const ExperimentResult r = run_experiment(p);
    EXPECT_GT(r.metrics.counter("iqs.recoveries"), 0u) << seed;
    const auto regular = r.history.check_regular();
    EXPECT_TRUE(regular.empty())
        << seed << ": " << regular.size()
        << " regular violations, first: " << regular.front().reason;
    const auto atomic = r.history.check_atomic();
    EXPECT_TRUE(atomic.empty())
        << seed << ": " << atomic.size()
        << " atomic violations, first: " << atomic.front().reason;
  }
}

}  // namespace
}  // namespace dq::workload
