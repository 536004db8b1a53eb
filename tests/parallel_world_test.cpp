// The partitioned (conservative parallel) world engine's contract:
//
//   1. WORKER-THREAD COUNT IS UNOBSERVABLE.  The partition plan is a pure
//      function of the topology, cross-partition mail merges in a fixed
//      (deliver_time, global_seq) order, and every shared metrics
//      instrument is laned -- so a dq.report.v1 document rendered at
//      --world-threads 8 must be byte-identical to one from --world-threads
//      1 (same partitioned schedule, different concurrency).
//   2. THE SCHEDULE IS REPRODUCIBLE.  Golden reports generated at
//      --world-threads 4 are checked in -- one with loss only, one with
//      crash/restart injection -- and every run at any thread count must
//      keep matching them byte for byte.
//   3. FAULTS ARE ROUND-BOUNDARY EVENTS.  Failure and crash injection run on
//      every partition plan, with every partition stopped at exactly the
//      event's time.
//
// A multi-partition schedule legitimately differs from the one-partition
// plan's (different rng stream assignment, different cross-partition
// interleaving) -- callers opt in -- so there is no cross-plan equality
// test, only cross-thread-count.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "sim/parallel_world.h"
#include "sim/world.h"
#include "workload/experiment.h"
#include "workload/report.h"

namespace dq::sim {
namespace {

using workload::ExperimentParams;

// The golden cell: DQVL over a 12-server deployment with jitter, loss, and
// writes, so the run exercises retries, reordering, drops, and lease renewal
// across every partition boundary.  These parameters must not change --
// tests/golden/report_dqvl_world4_seed7.json was generated from them (at
// --world-threads 4).
ExperimentParams world_golden_params() {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.topo.num_servers = 12;
  p.topo.num_clients = 6;
  p.topo.jitter = 0.1;
  p.write_ratio = 0.2;
  p.locality = 0.9;
  p.requests_per_client = 80;
  p.loss = 0.02;
  p.seed = 7;
  p.world_threads = 1;  // overridden per test
  return p;
}

std::string report_at(ExperimentParams p, std::size_t world_threads) {
  p.world_threads = world_threads;
  const auto result = workload::run_experiment(p);
  return workload::report::to_json(p, result);
}

TEST(ParallelWorld, ReportsByteIdenticalAcrossWorldThreadCounts) {
  const ExperimentParams p = world_golden_params();
  const std::string at1 = report_at(p, 1);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(at1, report_at(p, threads))
        << "dq.report.v1 diverges at --world-threads " << threads;
  }
}

TEST(ParallelWorld, ReportMatchesCheckedInGolden) {
  const std::string path =
      std::string(DQ_GOLDEN_DIR) + "/report_dqvl_world4_seed7.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  // The generator wrote the document with a trailing newline.
  EXPECT_EQ(report_at(world_golden_params(), 4) + "\n", buf.str())
      << "partitioned-engine report no longer matches its checked-in golden";
}

TEST(ParallelWorld, MajorityProtocolIdenticalAcrossThreadCounts) {
  ExperimentParams p = world_golden_params();
  p.protocol = "majority";
  p.seed = 11;
  EXPECT_EQ(report_at(p, 1), report_at(p, 4));
}

// The crash golden cell: parallel_runner_test's dqvl_crash cell (WAL with
// group commit and torn-tail faults, crash/restart over every server), run
// on the multi-partition plan.  These parameters must not change --
// tests/golden/report_dqvl_crash_world4_seed13.json was generated from
// them (at --world-threads 4).
ExperimentParams crash_world_params() {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.write_ratio = 0.3;
  p.locality = 0.85;
  p.requests_per_client = 100;
  p.lease_length = seconds(1);
  p.loss = 0.02;
  p.topo.jitter = 0.1;
  p.op_deadline = seconds(25);
  store::WalParams w;
  w.policy = store::SyncPolicy::kGroupCommit;
  w.torn_tail_faults = true;
  p.wal = w;
  CrashInjector::Params c;
  c.mean_time_to_crash = seconds(10);
  c.mean_downtime = seconds(1);
  p.crashes = c;
  p.seed = 13;
  p.world_threads = 1;  // overridden per test
  return p;
}

TEST(ParallelWorld, InjectionByteIdenticalAcrossWorldThreadCounts) {
  // Both injectors at once: unreachability and crash/restart transitions
  // are round-boundary events, so the thread count stays unobservable.
  ExperimentParams p = crash_world_params();
  p.failures = FailureInjector::Params::for_unavailability(0.05, seconds(20));
  const std::string at1 = report_at(p, 1);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(at1, report_at(p, threads))
        << "dq.report.v1 with injection diverges at --world-threads "
        << threads;
  }
}

TEST(ParallelWorld, CrashReportMatchesCheckedInGolden) {
  const std::string path =
      std::string(DQ_GOLDEN_DIR) + "/report_dqvl_crash_world4_seed13.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(report_at(crash_world_params(), 4) + "\n", buf.str())
      << "crash-injection report no longer matches its checked-in golden";
}

// --- engine-level tests on a bare World --------------------------------------

class Echo final : public Actor {
 public:
  void on_message(const Envelope& env) override {
    log.push_back(env.src.value());
    if (!env.is_reply) world().reply(id(), env, msg::DqRead{ObjectId(0)});
  }
  std::vector<std::uint32_t> log;
};

TEST(ParallelWorld, CrossPartitionDeliveryOrderIsDeterministic) {
  Topology::Params tp;
  tp.num_servers = 8;
  tp.num_clients = 0;
  tp.jitter = 0.2;  // jittered delays exercise the merge's time ordering
  auto run_once = [&](std::size_t threads) {
    World::Parallelism par{8, threads};
    World w(Topology(tp), 99, par);
    std::vector<Echo> actors(8);
    for (std::uint32_t i = 0; i < 8; ++i) w.attach(NodeId(i), actors[i]);
    // Every server pings every other server: 56 cross-partition requests
    // (plan is one partition per server) plus 56 replies.
    for (std::uint32_t s = 0; s < 8; ++s) {
      for (std::uint32_t d = 0; d < 8; ++d) {
        if (s == d) continue;
        w.set_timer(NodeId(s), milliseconds(s + 1), [&w, s, d] {
          w.send(NodeId(s), NodeId(d), w.fresh_rpc_id(),
                 msg::DqRead{ObjectId(s * 8 + d)});
        });
      }
    }
    w.run_all();
    std::vector<std::uint32_t> all;
    for (const Echo& a : actors) {
      all.insert(all.end(), a.log.begin(), a.log.end());
    }
    return all;
  };
  const auto at1 = run_once(1);
  EXPECT_EQ(at1.size(), 112u);  // 56 requests + 56 replies, none lost
  EXPECT_EQ(at1, run_once(4));
  EXPECT_EQ(at1, run_once(8));
}

// Keeps every envelope it receives, with its arrival time.
class Inbox final : public Actor {
 public:
  void on_message(const Envelope& env) override {
    got.push_back({world().now(), env});
  }
  std::vector<std::pair<Time, Envelope>> got;
};

TEST(ParallelWorld, MergedMailArrivesIntactInDeliverTimeSeqOrder) {
  // Three source partitions each send one burst of four messages to a
  // fourth, with departures staggered so each burst's deliver times run
  // out of send order and tie across the sources.  The merge must hand
  // every envelope over intact -- source, rpc id and a heap-allocated
  // payload string -- in (deliver_at, seq) order: time first, then by
  // source partition (seq's high bits), then in send order.
  Topology::Params tp;
  tp.num_servers = 4;
  tp.num_clients = 0;
  const std::vector<Duration> depart = {milliseconds(2), 0, milliseconds(2),
                                        milliseconds(1)};
  auto value = [](std::uint32_t src, std::size_t k) {
    return "source " + std::to_string(src) + " message " + std::to_string(k) +
           ": a payload too long for the small-string buffer";
  };
  auto run_once = [&](std::size_t threads) {
    World w(Topology(tp), 3, World::Parallelism{4, threads});
    Inbox sink;
    std::vector<Echo> senders(3);
    for (std::uint32_t i = 0; i < 3; ++i) w.attach(NodeId(i), senders[i]);
    w.attach(NodeId(3), sink);
    for (std::uint32_t src = 0; src < 3; ++src) {
      w.set_timer(NodeId(src), 0, [&, src] {
        for (std::size_t k = 0; k < depart.size(); ++k) {
          msg::AppRequest req;
          req.op = msg::OpKind::kWrite;
          req.object = ObjectId(10 * src + k);
          req.value = value(src, k);
          w.send_at(NodeId(src), NodeId(3), depart[k],
                    RequestId(100 * src + k), std::move(req));
        }
      });
    }
    w.run_all();
    return sink.got;
  };

  // Expected: sorted by (deliver time, source partition, send index).
  struct Want {
    Time at;
    std::uint32_t src;
    std::size_t k;
  };
  std::vector<Want> want;
  for (std::uint32_t src = 0; src < 3; ++src) {
    for (std::size_t k = 0; k < depart.size(); ++k) {
      want.push_back({depart[k] + milliseconds(40), src, k});
    }
  }
  std::stable_sort(want.begin(), want.end(), [](const Want& a, const Want& b) {
    return a.at != b.at ? a.at < b.at : a.src < b.src;
  });

  for (const std::size_t threads : {1u, 3u}) {
    const auto got = run_once(threads);
    ASSERT_EQ(got.size(), want.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const auto& [at, env] = got[i];
      const Want& w = want[i];
      EXPECT_EQ(at, w.at) << "delivery " << i;
      EXPECT_EQ(env.src, NodeId(w.src)) << "delivery " << i;
      EXPECT_EQ(env.dst, NodeId(3));
      EXPECT_EQ(env.rpc_id, RequestId(100 * w.src + w.k)) << "delivery " << i;
      EXPECT_FALSE(env.is_reply);
      const auto* req = std::get_if<msg::AppRequest>(&env.body);
      ASSERT_NE(req, nullptr) << "delivery " << i;
      EXPECT_EQ(req->object, ObjectId(10 * w.src + w.k));
      EXPECT_EQ(req->value, value(w.src, w.k)) << "delivery " << i;
    }
  }
}

TEST(ParallelWorld, RunUntilAdvancesEveryPartitionClock) {
  Topology::Params tp;
  tp.num_servers = 4;
  tp.num_clients = 0;
  World w(Topology(tp), 1, World::Parallelism{4, 2});
  std::vector<Echo> actors(4);
  for (std::uint32_t i = 0; i < 4; ++i) w.attach(NodeId(i), actors[i]);
  w.run_until(seconds(5));
  EXPECT_EQ(w.now(), seconds(5));  // idle partitions still reach the deadline
  w.send(NodeId(0), NodeId(3), RequestId(1), msg::DqRead{ObjectId(1)});
  w.run_for(seconds(1));
  ASSERT_EQ(actors[3].log.size(), 1u);
}

TEST(ParallelWorld, RunAllOnOnePartitionStopsAtTheLastEvent) {
  Topology::Params tp;
  tp.num_servers = 2;
  tp.num_clients = 0;
  World w(Topology(tp), 1);  // the default plan: one partition
  std::vector<Echo> actors(2);
  for (std::uint32_t i = 0; i < 2; ++i) w.attach(NodeId(i), actors[i]);
  w.set_timer(NodeId(0), milliseconds(7), [&w] {
    w.send(NodeId(0), NodeId(1), w.fresh_rpc_id(), msg::DqRead{ObjectId(1)});
  });
  w.run_all();
  // Request out at 7 ms, in at 47 ms; the reply lands back at 87 ms.
  ASSERT_EQ(actors[0].log.size(), 1u);
  EXPECT_EQ(w.now(), milliseconds(87));
}

TEST(ParallelWorld, BoundaryEventStopsEveryPartitionAtItsTime) {
  Topology::Params tp;
  tp.num_servers = 4;
  tp.num_clients = 0;
  World w(Topology(tp), 1, World::Parallelism{4, 2});
  std::vector<Echo> actors(4);
  for (std::uint32_t i = 0; i < 4; ++i) w.attach(NodeId(i), actors[i]);
  // A ping leaves node 0 at 1 ms and is due at node 3 at 41 ms, but node 3
  // drops off the network at 20 ms, inside what would otherwise be one
  // 40 ms window.  It comes back at 50 ms and arms a 1 ms timer from there.
  w.set_timer(NodeId(0), milliseconds(1), [&w] {
    w.send(NodeId(0), NodeId(3), w.fresh_rpc_id(), msg::DqRead{ObjectId(1)});
  });
  std::vector<Time> seen;
  w.schedule_boundary(milliseconds(20), [&] {
    seen.push_back(w.now());
    w.set_up(NodeId(3), false);
  });
  w.schedule_boundary(milliseconds(50), [&] {
    seen.push_back(w.now());
    w.set_up(NodeId(3), true);
    w.set_timer(NodeId(3), milliseconds(1), [&] { seen.push_back(w.now()); });
  });
  w.run_until(seconds(1));
  EXPECT_EQ(seen, (std::vector<Time>{milliseconds(20), milliseconds(50),
                                     milliseconds(51)}));
  EXPECT_TRUE(actors[3].log.empty());
  EXPECT_EQ(w.dropped_messages(), 1u);
  EXPECT_EQ(w.executed_events(), 5u);  // timer, delivery, timer, 2 faults
}

TEST(ParallelWorld, PartitionCountNeverFollowsThreadCount) {
  Topology::Params tp;
  tp.num_servers = 6;
  tp.num_clients = 3;
  for (const std::size_t threads : {1u, 2u, 16u}) {
    World w(Topology(tp), 5,
            World::Parallelism{par::default_partition_count(Topology(tp)),
                               threads});
    EXPECT_EQ(w.partition_plan().count, 6u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace dq::sim
