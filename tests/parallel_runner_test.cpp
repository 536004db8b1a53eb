// The parallel trial runner's contract: parallelism is unobservable.  A
// dq.report.v1 document rendered from a trial run at --jobs 8 must be
// byte-identical to the one from --jobs 1 -- and both must be byte-identical
// to the reports the SERIAL simulator produced before the event-core rewrite
// (the checked-in tests/golden/ files), so the fast path provably changed
// nothing observable.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "run/parallel_runner.h"
#include "workload/report.h"

namespace dq::run {
namespace {

using workload::ExperimentParams;

// The golden matrix: two protocols x two seeds, with enough loss and jitter
// that the run exercises retries, reordering, and drops.  These parameters
// must not change -- tests/golden/*.json were generated from them.
ExperimentParams golden_params(std::string proto, std::uint64_t seed) {
  ExperimentParams p;
  p.protocol = proto;
  p.write_ratio = 0.2;
  p.locality = 0.9;
  p.requests_per_client = 120;
  p.loss = 0.02;
  p.topo.jitter = 0.1;
  p.seed = seed;
  return p;
}

// Crash-heavy golden cells: WAL (group commit, torn-tail faults on) plus an
// exponential crash/restart process over every server.  Crash scheduling,
// WAL replay, and torn-tail sampling all draw from the seeded rng, so these
// reports too must be byte-identical at any --jobs value and against their
// checked-in goldens.  These parameters must not change either --
// tests/golden/report_*_crash_seed*.json were generated from them.
ExperimentParams crash_golden_params(std::string proto, std::uint64_t seed) {
  ExperimentParams p;
  p.protocol = proto;
  p.write_ratio = 0.3;
  p.locality = 0.85;
  p.requests_per_client = 100;
  p.lease_length = sim::seconds(1);
  p.loss = 0.02;
  p.topo.jitter = 0.1;
  p.op_deadline = sim::seconds(25);
  store::WalParams w;
  w.policy = store::SyncPolicy::kGroupCommit;
  w.torn_tail_faults = true;
  p.wal = w;
  sim::CrashInjector::Params c;
  c.mean_time_to_crash = sim::seconds(10);
  c.mean_downtime = sim::seconds(1);
  p.crashes = c;
  p.seed = seed;
  return p;
}

// The lease-renewal golden cell: the cells above run one volume with
// callback object leases and no proactive renewal, so they never reach the
// batched volume-renewal reply or finite object leases under drift.  The
// delayed-invalidation bound of two never trips here (the proactive rounds
// keep every volume lease valid, so the report shows no epoch bump).
// These parameters must not change either --
// tests/golden/report_dqvl_leases_seed7.json was generated from them.
ExperimentParams lease_golden_params(std::string proto, std::uint64_t seed) {
  ExperimentParams p = golden_params(std::move(proto), seed);
  p.num_volumes = 4;
  p.object_lease_length = sim::seconds(2);
  p.max_drift = 0.01;
  p.lease_length = sim::seconds(1);
  p.proactive_renewal = true;
  p.batch_renewals = true;
  p.max_delayed_per_volume = 2;
  return p;
}

struct Cell {
  std::string proto;
  const char* name;
  std::uint64_t seed;
  ExperimentParams (*params)(std::string, std::uint64_t);
};

const Cell kCells[] = {
    {"dqvl", "dqvl", 7, golden_params},
    {"dqvl", "dqvl", 11, golden_params},
    {"majority", "majority", 7, golden_params},
    {"majority", "majority", 11, golden_params},
    {"dqvl", "dqvl_crash", 13, crash_golden_params},
    {"dqvl", "dqvl_crash", 29, crash_golden_params},
    {"majority", "majority_crash", 13, crash_golden_params},
    {"dqvl", "dqvl_leases", 7, lease_golden_params},
    // The protocols no other golden covers, one cell each.
    {"dqvl-atomic", "dqvl_atomic", 7, golden_params},
    {"dq-basic", "dq_basic", 7, golden_params},
    {"pb", "pb", 7, golden_params},
    {"pb-sync", "pb_sync", 7, golden_params},
    {"rowa", "rowa", 7, golden_params},
    {"rowa-async", "rowa_async", 7, golden_params},
};

std::vector<std::string> reports_at(std::size_t jobs) {
  std::vector<ExperimentParams> trials;
  for (const Cell& c : kCells) trials.push_back(c.params(c.proto, c.seed));
  const auto results = run_experiments(trials, jobs);
  std::vector<std::string> docs;
  for (std::size_t i = 0; i < results.size(); ++i) {
    docs.push_back(workload::report::to_json(trials[i], results[i]));
  }
  return docs;
}

std::string read_golden(const Cell& c) {
  const std::string path = std::string(DQ_GOLDEN_DIR) + "/report_" + c.name +
                           "_seed" + std::to_string(c.seed) + ".json";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ParallelRunner, ReportsByteIdenticalAcrossJobCounts) {
  const auto serial = reports_at(1);
  for (const std::size_t jobs : {2u, 8u}) {
    const auto threaded = reports_at(jobs);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], threaded[i])
          << "cell " << i << " diverges at jobs=" << jobs;
    }
  }
}

TEST(ParallelRunner, ReportsMatchPreRewriteGoldenFiles) {
  // The loss-only goldens pin the pre-event-core-rewrite simulator; the
  // *_crash goldens pin the durability subsystem's first release; the
  // *_leases golden pins the renewal-reply paths before the pending-read
  // index; the dqvl_atomic, dq_basic, pb, pb_sync, rowa and rowa_async
  // goldens pin each protocol's service client before the shared
  // quorum-register client.
  const auto docs = reports_at(8);
  for (std::size_t i = 0; i < std::size(kCells); ++i) {
    // The generator wrote each document with a trailing newline.
    EXPECT_EQ(docs[i] + "\n", read_golden(kCells[i]))
        << "report for " << kCells[i].name << " seed " << kCells[i].seed
        << " no longer matches its checked-in golden";
  }
}

TEST(ParallelRunner, ResolveJobs) {
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_GE(resolve_jobs(0), 1u);  // hardware concurrency, never zero
  // Requests above the hardware concurrency clamp to it (with a stderr
  // note); at or below they are taken as given.
  const std::size_t hw = resolve_jobs(0);
  EXPECT_EQ(resolve_jobs(5), std::min<std::size_t>(5, hw));
  EXPECT_EQ(resolve_jobs(hw + 7), hw);
}

TEST(ParallelRunner, ParallelForIndexRunsEveryIndexExactlyOnce) {
  for (const std::size_t jobs : {1u, 3u, 16u}) {
    constexpr std::size_t kN = 97;  // not a multiple of any worker count
    // Each index writes only its own slot, per the runner's contract, so
    // a correct runner has no write-write races here (the tsan smoke binary
    // checks the same machinery under -fsanitize=thread).
    std::vector<int> hits(kN, 0);
    parallel_for_index(kN, jobs, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i], 1) << "index " << i << " at jobs=" << jobs;
    }
  }
}

TEST(ParallelRunner, ParallelForIndexHandlesEmptyAndSingle) {
  bool ran = false;
  parallel_for_index(0, 8, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  std::size_t seen = 0;
  parallel_for_index(1, 8, [&](std::size_t i) { seen = i + 1; });
  EXPECT_EQ(seen, 1u);
}

}  // namespace
}  // namespace dq::run
