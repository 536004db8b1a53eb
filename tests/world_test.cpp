// Tests for the World: delivery, delays, loss, duplication, partitions,
// crash/restart semantics, local-clock timers, and message accounting.
#include <gtest/gtest.h>

#include <vector>

#include "sim/world.h"

namespace dq::sim {
namespace {

// Records everything it receives.
class Recorder final : public Actor {
 public:
  void on_message(const Envelope& env) override { received.push_back(env); }
  void on_crash() override { ++crashes; }
  void on_recover() override { ++recoveries; }

  std::vector<Envelope> received;
  int crashes = 0;
  int recoveries = 0;
};

Topology::Params small_topo() {
  Topology::Params p;
  p.num_servers = 3;
  p.num_clients = 1;
  p.processing_delay = 0;
  return p;
}

class WorldTest : public ::testing::Test {
 protected:
  WorldTest() : w(Topology(small_topo()), 1) {
    for (std::size_t i = 0; i < 4; ++i) {
      w.attach(NodeId(static_cast<std::uint32_t>(i)), actors[i]);
    }
  }
  World w;
  Recorder actors[4];
};

TEST_F(WorldTest, DeliversWithServerToServerDelay) {
  w.send(NodeId(0), NodeId(1), RequestId(1), msg::DqRead{ObjectId(7)});
  w.run_for(milliseconds(39));
  EXPECT_TRUE(actors[1].received.empty());
  w.run_for(milliseconds(2));
  ASSERT_EQ(actors[1].received.size(), 1u);
  EXPECT_EQ(actors[1].received[0].src, NodeId(0));
  EXPECT_EQ(actors[1].received[0].rpc_id, RequestId(1));
}

TEST_F(WorldTest, LoopbackIsImmediate) {
  w.send(NodeId(0), NodeId(0), RequestId(2), msg::DqRead{ObjectId(1)});
  w.run_for(0);
  EXPECT_EQ(actors[0].received.size(), 1u);
}

TEST_F(WorldTest, ClientToHomeIsFasterThanRemote) {
  // Client (node 3) is homed at server 0.
  w.send(NodeId(3), NodeId(0), RequestId(1), msg::AppRequest{});
  w.send(NodeId(3), NodeId(1), RequestId(2), msg::AppRequest{});
  w.run_for(milliseconds(5));
  EXPECT_EQ(actors[0].received.size(), 1u);  // 4 ms
  EXPECT_TRUE(actors[1].received.empty());   // 43 ms
  w.run_for(milliseconds(40));
  EXPECT_EQ(actors[1].received.size(), 1u);
}

TEST_F(WorldTest, DownNodeNeitherSendsNorReceives) {
  w.set_up(NodeId(1), false);
  w.send(NodeId(0), NodeId(1), RequestId(1), msg::DqRead{ObjectId(1)});
  w.send(NodeId(1), NodeId(0), RequestId(2), msg::DqRead{ObjectId(1)});
  w.run_for(seconds(1));
  EXPECT_TRUE(actors[1].received.empty());
  EXPECT_TRUE(actors[0].received.empty());
  // Recovery restores delivery.
  w.set_up(NodeId(1), true);
  w.send(NodeId(0), NodeId(1), RequestId(3), msg::DqRead{ObjectId(1)});
  w.run_for(seconds(1));
  EXPECT_EQ(actors[1].received.size(), 1u);
}

TEST_F(WorldTest, PartitionBlocksCrossGroupTraffic) {
  w.faults().set_group(NodeId(0), 1);  // 0 alone; 1,2,3 in group 0
  w.send(NodeId(0), NodeId(1), RequestId(1), msg::DqRead{ObjectId(1)});
  w.send(NodeId(1), NodeId(2), RequestId(2), msg::DqRead{ObjectId(1)});
  w.run_for(seconds(1));
  EXPECT_TRUE(actors[1].received.empty());
  EXPECT_EQ(actors[2].received.size(), 1u);
  w.faults().heal();
  w.send(NodeId(0), NodeId(1), RequestId(3), msg::DqRead{ObjectId(1)});
  w.run_for(seconds(1));
  EXPECT_EQ(actors[1].received.size(), 1u);
}

TEST_F(WorldTest, PartitionStartedWhileInFlightEatsTheMessage) {
  w.send(NodeId(0), NodeId(1), RequestId(1), msg::DqRead{ObjectId(1)});
  w.run_for(milliseconds(10));
  w.set_up(NodeId(1), false);  // goes down before the 40 ms delivery
  w.run_for(seconds(1));
  EXPECT_TRUE(actors[1].received.empty());
}

TEST_F(WorldTest, LossDropsApproximatelyTheConfiguredFraction) {
  w.faults().set_loss_probability(0.3);
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    w.send(NodeId(0), NodeId(1), RequestId(static_cast<std::uint64_t>(i)),
           msg::DqRead{ObjectId(1)});
  }
  w.run_for(seconds(1));
  const double delivered =
      static_cast<double>(actors[1].received.size()) / n;
  EXPECT_NEAR(delivered, 0.7, 0.05);
}

TEST_F(WorldTest, DuplicationDeliversExtraCopies) {
  w.faults().set_duplication_probability(1.0);
  w.send(NodeId(0), NodeId(1), RequestId(1), msg::DqRead{ObjectId(1)});
  w.run_for(seconds(1));
  EXPECT_EQ(actors[1].received.size(), 2u);
}

TEST_F(WorldTest, CrashDropsPendingTimersAndInvokesHooks) {
  bool fired = false;
  w.set_timer(NodeId(1), milliseconds(100), [&] { fired = true; });
  w.crash(NodeId(1));
  EXPECT_EQ(actors[1].crashes, 1);
  w.run_for(seconds(1));
  EXPECT_FALSE(fired);
  w.restart(NodeId(1));
  EXPECT_EQ(actors[1].recoveries, 1);
  // Timers set after restart do fire.
  w.set_timer(NodeId(1), milliseconds(10), [&] { fired = true; });
  w.run_for(seconds(1));
  EXPECT_TRUE(fired);
}

TEST_F(WorldTest, CrashedNodeDoesNotReceive) {
  w.crash(NodeId(1));
  w.send(NodeId(0), NodeId(1), RequestId(1), msg::DqRead{ObjectId(1)});
  w.run_for(seconds(1));
  EXPECT_TRUE(actors[1].received.empty());
}

TEST_F(WorldTest, LocalClockTimerHonoursDrift) {
  // Node 1 runs 2x fast: its local clock reaches 200 ms at global 100 ms.
  w.set_clock(NodeId(1), DriftClock(0, 2.0));
  Time fired_at = -1;
  w.set_timer_local(NodeId(1), milliseconds(200),
                    [&] { fired_at = w.now(); });
  w.run_for(seconds(1));
  EXPECT_EQ(fired_at, milliseconds(100));
}

TEST_F(WorldTest, SentCountByType) {
  w.send(NodeId(0), NodeId(1), RequestId(1), msg::DqRead{ObjectId(1)});
  w.send(NodeId(0), NodeId(1), RequestId(2), msg::DqInval{ObjectId(1), {}});
  w.send(NodeId(0), NodeId(2), RequestId(3), msg::DqInval{ObjectId(1), {}});
  EXPECT_EQ(w.sent_messages(), 3u);
  EXPECT_EQ(w.sent_by_type()["DqRead"], 1u);
  EXPECT_EQ(w.sent_by_type()["DqInval"], 2u);
  EXPECT_EQ(w.sent_by_type()["DqWrite"], 0u);  // never sent
}

TEST_F(WorldTest, DroppedCounterTracksUnreachableAndLost) {
  w.set_up(NodeId(1), false);
  w.send(NodeId(0), NodeId(1), RequestId(1), msg::DqRead{ObjectId(1)});
  EXPECT_EQ(w.dropped_messages(), 1u);
}

TEST_F(WorldTest, SameSeedSameDeliverySchedule) {
  // Determinism: two identical worlds deliver identically under jitter.
  Topology::Params p = small_topo();
  p.jitter = 0.5;
  auto run = [&](std::uint64_t seed) {
    World w2{Topology(p), seed};
    Recorder r[4];
    for (std::size_t i = 0; i < 4; ++i) {
      w2.attach(NodeId(static_cast<std::uint32_t>(i)), r[i]);
    }
    std::vector<Time> times;
    for (int i = 0; i < 20; ++i) {
      w2.send(NodeId(0), NodeId(1), RequestId(static_cast<std::uint64_t>(i)),
              msg::DqRead{ObjectId(1)});
    }
    w2.run_for(seconds(1));
    times.push_back(w2.now());
    return r[1].received.size();
  };
  EXPECT_EQ(run(9), run(9));
}

TEST(PartitionPlan, CoversEveryNodeExactlyOnce) {
  Topology::Params p;
  p.num_servers = 9;
  p.num_clients = 5;
  const Topology topo{p};
  for (std::size_t count : {1u, 2u, 4u, 9u, 16u}) {
    const par::PartitionPlan plan = par::make_partition_plan(topo, count);
    EXPECT_EQ(plan.count, std::min<std::size_t>(count, 9));
    // of_node is total: one partition per node, and nothing else (a node
    // in two partitions would double-execute; one in none would hang).
    ASSERT_EQ(plan.of_node.size(), topo.num_nodes());
    std::vector<std::size_t> population(plan.count, 0);
    for (std::uint32_t part : plan.of_node) {
      ASSERT_LT(part, plan.count);
      ++population[part];
    }
    for (std::size_t pop : population) EXPECT_GE(pop, 1u);
    // A client always lands with its home server (keeps the cheap
    // client<->home link intra-partition).
    for (std::size_t c = 0; c < topo.num_clients(); ++c) {
      const NodeId client = topo.client(c);
      EXPECT_EQ(plan.of_node[client.value()],
                plan.of_node[topo.home_of(client).value()]);
    }
    // With clients riding their home servers, the cheapest cross-partition
    // link is server<->server.
    if (plan.count > 1) {
      EXPECT_EQ(plan.lookahead, topo.params().server_to_server);
    }
  }
}

TEST(PartitionPlan, DefaultCountDerivesFromTopologyOnly) {
  Topology::Params p;
  p.num_servers = 4;
  EXPECT_EQ(par::default_partition_count(Topology{p}), 4u);
  p.num_servers = 64;  // capped: round overhead beats tiny queues
  EXPECT_EQ(par::default_partition_count(Topology{p}), 16u);
}

}  // namespace
}  // namespace dq::sim
