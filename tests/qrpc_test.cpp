// QRPC engine tests: quorum completion, retransmission to fresh quorums
// under loss and dead nodes, deadlines, pokes, per-node request builders,
// loopback request/reply discrimination, and the call slab's edge cases.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "quorum/quorum.h"
#include "rpc/qrpc.h"
#include "sim/world.h"

namespace dq::rpc {
namespace {

using quorum::Kind;
using quorum::ThresholdQuorum;

std::vector<NodeId> nodes(std::size_t n) {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

// Echo server: replies to MajRead with a MajReadReply.
class Echo final : public sim::Actor {
 public:
  void on_message(const sim::Envelope& env) override {
    ++requests;
    if (std::holds_alternative<msg::MajRead>(env.body)) {
      world().reply(id(), env, msg::MajReadReply{ObjectId(1), "v", {1, 1}});
    }
  }
  int requests = 0;
};

// Host actor for the engine under test.
class Caller final : public sim::Actor {
 public:
  void on_message(const sim::Envelope& env) override {
    if (engine) engine->on_reply(env);
  }
  QrpcEngine* engine = nullptr;
};

class QrpcTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kServers = 5;

  QrpcTest() {
    sim::Topology::Params tp;
    tp.num_servers = kServers;
    tp.num_clients = 1;
    tp.processing_delay = 0;
    world = std::make_unique<sim::World>(sim::Topology(tp), 3);
    for (std::size_t i = 0; i < kServers; ++i) {
      world->attach(NodeId(static_cast<std::uint32_t>(i)), echos[i]);
    }
    world->attach(NodeId(kServers), caller);
    engine = std::make_unique<QrpcEngine>(*world, NodeId(kServers));
    caller.engine = engine.get();
    system = ThresholdQuorum::majority(nodes(kServers));
  }

  std::unique_ptr<sim::World> world;
  Echo echos[kServers];
  Caller caller;
  std::unique_ptr<QrpcEngine> engine;
  std::unique_ptr<ThresholdQuorum> system;
};

TEST_F(QrpcTest, CompletesOnQuorumOfReplies) {
  int replies = 0;
  bool completed = false;
  engine->call(
      *system, Kind::kRead,
      [](NodeId) -> std::optional<msg::Payload> {
        return msg::MajRead{ObjectId(1)};
      },
      [&](NodeId, const msg::Payload&) { ++replies; },
      [&](bool ok) {
        completed = true;
        EXPECT_TRUE(ok);
      });
  world->run_for(sim::seconds(1));
  EXPECT_TRUE(completed);
  EXPECT_EQ(replies, 3);  // majority of 5
  EXPECT_EQ(engine->inflight(), 0u);
}

TEST_F(QrpcTest, RetransmitsThroughLossUntilQuorum) {
  world->faults().set_loss_probability(0.6);
  bool completed = false;
  engine->call(
      *system, Kind::kWrite,
      [](NodeId) -> std::optional<msg::Payload> {
        return msg::MajRead{ObjectId(1)};
      },
      [](NodeId, const msg::Payload&) {},
      [&](bool ok) { completed = ok; });
  world->run_for(sim::seconds(60));
  EXPECT_TRUE(completed);
}

TEST_F(QrpcTest, RoutesAroundDeadNodesViaFreshQuorums) {
  // Two of five down: a majority of three is still formable, but the first
  // randomly selected quorum may include dead nodes -- retransmission must
  // find a live one.
  world->set_up(NodeId(0), false);
  world->set_up(NodeId(1), false);
  bool completed = false;
  engine->call(
      *system, Kind::kRead,
      [](NodeId) -> std::optional<msg::Payload> {
        return msg::MajRead{ObjectId(1)};
      },
      [](NodeId, const msg::Payload&) {},
      [&](bool ok) { completed = ok; });
  world->run_for(sim::seconds(60));
  EXPECT_TRUE(completed);
}

TEST_F(QrpcTest, DeadlineFailsTheCall) {
  // Three of five down: no majority can respond.
  world->set_up(NodeId(0), false);
  world->set_up(NodeId(1), false);
  world->set_up(NodeId(2), false);
  bool completed = false, ok_result = true;
  QrpcOptions opts;
  opts.deadline = sim::seconds(3);
  engine->call(
      *system, Kind::kRead,
      [](NodeId) -> std::optional<msg::Payload> {
        return msg::MajRead{ObjectId(1)};
      },
      [](NodeId, const msg::Payload&) {},
      [&](bool ok) {
        completed = true;
        ok_result = ok;
      },
      opts);
  world->run_for(sim::seconds(10));
  EXPECT_TRUE(completed);
  EXPECT_FALSE(ok_result);
  EXPECT_EQ(engine->inflight(), 0u);
}

TEST_F(QrpcTest, NullBuildSkipsNodes) {
  // Skip node 0 entirely; completion must still be reachable.
  std::map<std::uint32_t, int> sent;
  bool completed = false;
  engine->call_until(
      *system, Kind::kWrite,
      [&](NodeId n) -> std::optional<msg::Payload> {
        if (n == NodeId(0)) return std::nullopt;
        ++sent[n.value()];
        return msg::MajRead{ObjectId(1)};
      },
      [](NodeId, const msg::Payload&) {},
      [this] {
        return engine->inflight() == 0 ||
               echos[1].requests + echos[2].requests + echos[3].requests +
                       echos[4].requests >= 4;
      },
      [&](bool) { completed = true; });
  world->run_for(sim::seconds(30));
  EXPECT_TRUE(completed);
  EXPECT_EQ(sent.count(0), 0u);
}

TEST_F(QrpcTest, DoneAlreadyTrueCompletesWithoutSending) {
  bool completed = false;
  engine->call_until(
      *system, Kind::kRead,
      [](NodeId) -> std::optional<msg::Payload> {
        ADD_FAILURE() << "must not send when done() holds at start";
        return std::nullopt;
      },
      [](NodeId, const msg::Payload&) {}, [] { return true; },
      [&](bool ok) { completed = ok; });
  EXPECT_TRUE(completed);
  EXPECT_EQ(world->sent_messages(), 0u);
}

TEST_F(QrpcTest, PokeCompletesCallOnExternalStateChange) {
  bool external = false;
  bool completed = false;
  const CallId id = engine->call_until(
      *system, Kind::kRead,
      [](NodeId) -> std::optional<msg::Payload> {
        return std::nullopt;  // nothing to send; purely external completion
      },
      [](NodeId, const msg::Payload&) {}, [&] { return external; },
      [&](bool ok) { completed = ok; });
  world->run_for(sim::seconds(1));
  EXPECT_FALSE(completed);
  external = true;
  engine->poke(id);
  EXPECT_TRUE(completed);
}

TEST_F(QrpcTest, CancelStopsRetransmissionsAndDropsCall) {
  const CallId id = engine->call(
      *system, Kind::kRead,
      [](NodeId) -> std::optional<msg::Payload> {
        return msg::MajRead{ObjectId(1)};
      },
      [](NodeId, const msg::Payload&) {},
      [](bool) { ADD_FAILURE() << "cancelled call must not complete"; });
  engine->cancel(id);
  EXPECT_EQ(engine->inflight(), 0u);
  world->run_for(sim::seconds(30));
}

TEST_F(QrpcTest, DuplicateRepliesFromOneNodeCountOnce) {
  world->faults().set_duplication_probability(1.0);
  int replies = 0;
  engine->call(
      *system, Kind::kRead,
      [](NodeId) -> std::optional<msg::Payload> {
        return msg::MajRead{ObjectId(1)};
      },
      [&](NodeId, const msg::Payload&) { ++replies; }, [](bool) {});
  world->run_for(sim::seconds(5));
  EXPECT_LE(replies, 5);  // at most one counted reply per node
}

TEST_F(QrpcTest, RepliesAfterCompletionAreNotConsumed) {
  bool completed = false;
  engine->call(
      *system, Kind::kRead,
      [](NodeId) -> std::optional<msg::Payload> {
        return msg::MajRead{ObjectId(1)};
      },
      [](NodeId, const msg::Payload&) {}, [&](bool) { completed = true; });
  world->run_for(sim::seconds(5));
  ASSERT_TRUE(completed);
  // Stragglers (the 2 non-quorum replies) were offered to on_reply and
  // rejected; the engine has no live calls.
  EXPECT_EQ(engine->inflight(), 0u);
}

TEST_F(QrpcTest, LoopbackRequestIsNotMistakenForReply) {
  // The caller is not a member here, but direct injection tests the guard:
  // a request envelope carrying a known rpc id must not be consumed.
  bool completed = false;
  engine->call(
      *system, Kind::kRead,
      [](NodeId) -> std::optional<msg::Payload> {
        return msg::MajRead{ObjectId(1)};
      },
      [](NodeId, const msg::Payload&) {}, [&](bool) { completed = true; });
  // Forge a request envelope with is_reply = false.
  sim::Envelope forged{NodeId(0), NodeId(kServers), RequestId(1),
                       msg::MajRead{ObjectId(1)}, /*is_reply=*/false};
  EXPECT_FALSE(engine->on_reply(forged));
  EXPECT_FALSE(completed);
}

TEST_F(QrpcTest, OneWayReplyWithRpcZeroIsNotConsumed) {
  // Replies to one-way traffic (renewal batches) carry rpc id 0 with
  // is_reply set.  No call owns rpc id 0, however many are in flight.
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    engine->call(
        *system, Kind::kRead,
        [](NodeId) -> std::optional<msg::Payload> {
          return msg::MajRead{ObjectId(1)};
        },
        [](NodeId, const msg::Payload&) {}, [&](bool ok) { completed += ok; });
  }
  ASSERT_EQ(engine->inflight(), 3u);
  sim::Envelope one_way{NodeId(0), NodeId(kServers), RequestId(0),
                        msg::MajReadReply{ObjectId(1), "v", {1, 1}},
                        /*is_reply=*/true};
  EXPECT_FALSE(engine->on_reply(one_way));
  EXPECT_EQ(engine->inflight(), 3u);
  world->run_for(sim::seconds(1));
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(engine->inflight(), 0u);
}

TEST_F(QrpcTest, StaleIdLeavesTheSlotsNextCallAlone) {
  // Call A finishes; call B takes its slot.  A's id must no longer reach
  // the slot: poking or cancelling A leaves B in flight and untouched.
  bool a_ready = false, a_done = false;
  const CallId a = engine->call_until(
      *system, Kind::kRead,
      [](NodeId) -> std::optional<msg::Payload> { return std::nullopt; },
      [](NodeId, const msg::Payload&) {}, [&] { return a_ready; },
      [&](bool ok) { a_done = ok; });
  a_ready = true;
  engine->poke(a);
  ASSERT_TRUE(a_done);

  bool b_ready = false, b_done = false;
  int b_evals = 0;
  const CallId b = engine->call_until(
      *system, Kind::kRead,
      [](NodeId) -> std::optional<msg::Payload> { return std::nullopt; },
      [](NodeId, const msg::Payload&) {},
      [&] {
        ++b_evals;
        return b_ready;
      },
      [&](bool ok) { b_done = ok; });
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, a);
  EXPECT_EQ(static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(a))
      << "B should reuse A's slot";
  b_ready = true;  // B would complete if its predicate were evaluated
  const int evals = b_evals;
  engine->poke(a);
  engine->cancel(a);
  EXPECT_EQ(b_evals, evals);
  EXPECT_FALSE(b_done);
  EXPECT_EQ(engine->inflight(), 1u);
  engine->poke(b);
  EXPECT_TRUE(b_done);
  EXPECT_EQ(engine->inflight(), 0u);
}

TEST_F(QrpcTest, CompletionsThatStartCallsGrowTheSlab) {
  // A completion that starts many calls grows the slab while the engine is
  // inside on_reply (first) and inside poke (second).  Every call started
  // completes; the ones left waiting are dropped by cancel_all.
  constexpr int kFanOut = 150;  // more than a slab chunk
  int started = 0, completed = 0;
  auto classic = [&] {
    ++started;
    engine->call(
        *system, Kind::kRead,
        [](NodeId) -> std::optional<msg::Payload> {
          return msg::MajRead{ObjectId(1)};
        },
        [](NodeId, const msg::Payload&) {}, [&](bool ok) { completed += ok; });
  };
  bool from_reply = false;
  ++started;
  engine->call(
      *system, Kind::kRead,
      [](NodeId) -> std::optional<msg::Payload> {
        return msg::MajRead{ObjectId(1)};
      },
      [](NodeId, const msg::Payload&) {},
      [&](bool ok) {
        completed += ok;
        from_reply = true;
        for (int i = 0; i < kFanOut; ++i) classic();
      });
  bool poked_ready = false;
  ++started;
  const CallId poked = engine->call_until(
      *system, Kind::kRead,
      [](NodeId) -> std::optional<msg::Payload> { return std::nullopt; },
      [](NodeId, const msg::Payload&) {}, [&] { return poked_ready; },
      [&](bool ok) {
        completed += ok;
        for (int i = 0; i < kFanOut; ++i) classic();
      });
  world->run_for(sim::seconds(1));
  ASSERT_TRUE(from_reply);
  poked_ready = true;
  engine->poke(poked);
  world->run_for(sim::seconds(1));
  EXPECT_EQ(started, 2 + 2 * kFanOut);
  EXPECT_EQ(completed, started);
  EXPECT_EQ(engine->inflight(), 0u);

  // Calls that never complete on their own: cancel_all drops every one.
  for (int i = 0; i < kFanOut; ++i) {
    engine->call_until(
        *system, Kind::kRead,
        [](NodeId) -> std::optional<msg::Payload> { return std::nullopt; },
        [](NodeId, const msg::Payload&) {}, [] { return false; },
        [](bool) { ADD_FAILURE() << "a cancelled call must not complete"; });
  }
  EXPECT_EQ(engine->inflight(), static_cast<std::size_t>(kFanOut));
  engine->cancel_all();
  EXPECT_EQ(engine->inflight(), 0u);
  EXPECT_EQ(world->metrics().gauge("qrpc.inflight").value(), 0);
  world->run_for(sim::seconds(30));
}

}  // namespace
}  // namespace dq::rpc
