// Randomized QRPC properties: across loss, duplication, jitter, and dead
// nodes, calls either complete with a true quorum of distinct responders or
// fail by deadline -- never hang, never double-count, never complete
// without a quorum.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "quorum/quorum.h"
#include "rpc/qrpc.h"
#include "sim/world.h"

namespace dq::rpc {
namespace {

using quorum::Kind;
using quorum::ThresholdQuorum;

class Responder final : public sim::Actor {
 public:
  void on_message(const sim::Envelope& env) override {
    if (std::holds_alternative<msg::Read>(env.body)) {
      world().reply(id(), env, msg::ReadReply{ObjectId(1), "v", {1, 1}});
    }
  }
};

class Host final : public sim::Actor {
 public:
  void on_message(const sim::Envelope& env) override {
    if (engine) engine->on_reply(env);
  }
  QrpcEngine* engine = nullptr;
};

// (seed, loss, dup, dead_nodes)
using PropCase = std::tuple<std::uint64_t, double, double, std::size_t>;

class QrpcProperty : public ::testing::TestWithParam<PropCase> {};

TEST_P(QrpcProperty, CompletesCorrectlyOrFailsByDeadline) {
  const auto [seed, loss, dup, dead] = GetParam();
  constexpr std::size_t kServers = 7;

  sim::Topology::Params tp;
  tp.num_servers = kServers;
  tp.num_clients = 1;
  tp.processing_delay = 0;
  tp.jitter = 0.5;
  sim::World world{sim::Topology(tp), seed};
  world.faults().set_loss_probability(loss);
  world.faults().set_duplication_probability(dup);

  Responder servers[kServers];
  std::vector<NodeId> members;
  for (std::size_t i = 0; i < kServers; ++i) {
    const NodeId n(static_cast<std::uint32_t>(i));
    world.attach(n, servers[i]);
    members.push_back(n);
  }
  Host host;
  world.attach(NodeId(kServers), host);
  QrpcEngine engine(world, NodeId(kServers));
  host.engine = &engine;
  for (std::size_t i = 0; i < dead; ++i) {
    world.set_up(NodeId(static_cast<std::uint32_t>(i)), false);
  }

  auto system = ThresholdQuorum::majority(members);  // quorum of 4
  const bool quorum_possible = kServers - dead >= 4;

  // Issue several calls back to back.
  int completed_ok = 0, completed_fail = 0;
  std::vector<std::set<NodeId>> responder_sets;
  for (int c = 0; c < 5; ++c) {
    auto seen = std::make_shared<std::set<NodeId>>();
    QrpcOptions opts;
    opts.deadline = sim::seconds(30);
    engine.call(
        *system, Kind::kRead,
        [](NodeId) -> std::optional<msg::Payload> {
          return msg::Read{ObjectId(1)};
        },
        [seen](NodeId src, const msg::Payload&) {
          // Property: the engine never delivers two replies from one node.
          EXPECT_TRUE(seen->insert(src).second);
        },
        [&, seen](bool ok) {
          (ok ? completed_ok : completed_fail)++;
          if (ok) {
            // Property: completion implies a genuine quorum of DISTINCT
            // responders.
            EXPECT_GE(seen->size(), 4u);
          }
          responder_sets.push_back(*seen);
        },
        opts);
  }
  world.run_for(sim::seconds(120));

  // Property: no call hangs.
  EXPECT_EQ(completed_ok + completed_fail, 5);
  EXPECT_EQ(engine.inflight(), 0u);
  if (quorum_possible) {
    EXPECT_EQ(completed_ok, 5) << "a reachable quorum must be found";
  } else {
    EXPECT_EQ(completed_fail, 5) << "no quorum exists; all must time out";
  }
  // Property: dead nodes never respond.
  for (const auto& s : responder_sets) {
    for (std::size_t i = 0; i < dead; ++i) {
      EXPECT_EQ(s.count(NodeId(static_cast<std::uint32_t>(i))), 0u);
    }
  }
}

std::vector<PropCase> prop_cases() {
  std::vector<PropCase> out;
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    out.emplace_back(seed, 0.0, 0.0, 0u);   // clean
    out.emplace_back(seed, 0.3, 0.0, 0u);   // lossy
    out.emplace_back(seed, 0.2, 0.3, 0u);   // lossy + duplicating
    out.emplace_back(seed, 0.1, 0.0, 3u);   // minority dead
    out.emplace_back(seed, 0.0, 0.0, 4u);   // quorum impossible
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QrpcProperty, ::testing::ValuesIn(prop_cases()),
    [](const ::testing::TestParamInfo<PropCase>& info) {
      return "s" + std::to_string(std::get<0>(info.param)) + "_loss" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100)) +
             "_dup" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 100)) +
             "_dead" + std::to_string(std::get<3>(info.param));
    });

}  // namespace
}  // namespace dq::rpc
