// Workload-layer tests: app-client behavior (locality mix, deadlines,
// retransmission), front-end at-most-once execution, failure-injector
// statistics, topology arithmetic, and wire-size accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <variant>
#include <vector>

#include "msg/wire.h"
#include "protocols/service_client.h"
#include "sim/failure.h"
#include "workload/experiment.h"
#include "workload/frontend.h"
#include "workload/node.h"

namespace dq::workload {
namespace {

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

TEST(Topology, RoleSplitAndIds) {
  sim::Topology t({});
  EXPECT_EQ(t.num_servers(), 9u);
  EXPECT_EQ(t.num_clients(), 3u);
  EXPECT_TRUE(t.is_server(NodeId(0)));
  EXPECT_TRUE(t.is_server(NodeId(8)));
  EXPECT_TRUE(t.is_client(NodeId(9)));
  EXPECT_TRUE(t.is_client(NodeId(11)));
  EXPECT_FALSE(t.is_client(NodeId(8)));
  EXPECT_EQ(t.client(0), NodeId(9));
}

TEST(Topology, DefaultHomesRoundRobinAndOverride) {
  sim::Topology::Params p;
  p.num_servers = 3;
  p.num_clients = 5;
  sim::Topology t(p);
  EXPECT_EQ(t.home_of(t.client(0)), t.server(0));
  EXPECT_EQ(t.home_of(t.client(3)), t.server(0));
  EXPECT_EQ(t.home_of(t.client(4)), t.server(1));
  t.set_home(t.client(0), t.server(2));
  EXPECT_EQ(t.home_of(t.client(0)), t.server(2));
}

TEST(Topology, PaperDelaysReproduceRTTs) {
  sim::Topology t({});
  Rng rng(1);
  // client -> home: 4 ms one way (8 ms RTT).
  EXPECT_EQ(t.one_way_delay(t.client(0), t.server(0), rng),
            sim::milliseconds(4));
  // client -> remote: 43 ms (86 RTT).
  EXPECT_EQ(t.one_way_delay(t.client(0), t.server(5), rng),
            sim::milliseconds(43));
  // server -> server: 40 ms (80 RTT); loopback free.
  EXPECT_EQ(t.one_way_delay(t.server(1), t.server(2), rng),
            sim::milliseconds(40));
  EXPECT_EQ(t.one_way_delay(t.server(1), t.server(1), rng), 0);
  // Symmetric.
  EXPECT_EQ(t.one_way_delay(t.server(0), t.client(0), rng),
            sim::milliseconds(4));
}

TEST(Topology, JitterStretchesButNeverShrinksDelays) {
  sim::Topology::Params p;
  p.jitter = 0.5;
  sim::Topology t(p);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto d = t.one_way_delay(t.server(0), t.server(1), rng);
    EXPECT_GE(d, sim::milliseconds(40));
    EXPECT_LE(d, sim::milliseconds(60));
  }
}

// ---------------------------------------------------------------------------
// Failure injector
// ---------------------------------------------------------------------------

TEST(FailureInjector, SteadyStateMatchesTarget) {
  sim::Topology::Params tp;
  tp.num_servers = 1;
  tp.num_clients = 0;
  sim::World w{sim::Topology(tp), 5};
  struct Sink final : sim::Actor {
    void on_message(const sim::Envelope&) override {}
  } a;
  w.attach(NodeId(0), a);

  const double target = 0.1;
  auto params = sim::FailureInjector::Params::for_unavailability(
      target, sim::seconds(10));
  EXPECT_NEAR(params.steady_state_unavailability(), target, 1e-9);
  sim::FailureInjector inj(w, params);
  inj.start({NodeId(0)});

  // Sample the node's state once a second over a long horizon.
  std::uint64_t down = 0, samples = 0;
  for (int i = 0; i < 20000; ++i) {
    w.run_for(sim::seconds(1));
    ++samples;
    down += w.is_up(NodeId(0)) ? 0 : 1;
  }
  EXPECT_NEAR(static_cast<double>(down) / static_cast<double>(samples),
              target, 0.02);
}

// ---------------------------------------------------------------------------
// App client
// ---------------------------------------------------------------------------

TEST(AppClient, LocalityControlsWhichFrontEndServes) {
  // locality = 0.7 => ~70% of DQVL requests hit the home front end.
  ExperimentParams p;
  p.protocol = "rowa-async";  // local ops; latency identifies the FE
  p.locality = 0.7;
  p.requests_per_client = 600;
  p.write_ratio = 0.0;
  p.seed = 9;
  const auto r = run_experiment(p);
  // Home requests: 9 ms; remote: 87 ms.  Mean ~= 0.7*9 + 0.3*87 = 32.4.
  EXPECT_NEAR(r.read_ms.mean(), 32.4, 4.0);
}

TEST(AppClient, DeadlineRejectsAndMovesOn) {
  ExperimentParams p;
  p.protocol = "majority";
  p.requests_per_client = 10;
  p.op_deadline = sim::seconds(2);
  Deployment dep(p);
  // Kill everything: every op must reject after ~2 s, and the client must
  // keep issuing (not wedge on the first).
  for (std::size_t i = 0; i < 9; ++i) {
    dep.world().set_up(dep.world().topology().server(i), false);
  }
  const auto r = dep.run();
  EXPECT_EQ(r.rejected_reads + r.rejected_writes, 30u);
  EXPECT_LE(sim::to_seconds(r.sim_duration), 70.0);
}

TEST(AppClient, RetransmissionSurvivesHeavyAppLayerLoss) {
  ExperimentParams p;
  p.protocol = "rowa-async";
  p.loss = 0.3;
  p.requests_per_client = 50;
  p.seed = 77;
  const auto r = run_experiment(p);
  EXPECT_EQ(r.completed_reads + r.completed_writes, 150u);
}

TEST(AppClient, HistoryRecordsEveryOperation) {
  ExperimentParams p;
  p.protocol = "rowa";
  p.requests_per_client = 40;
  p.write_ratio = 0.5;
  const auto r = run_experiment(p);
  EXPECT_EQ(r.history.size(), 120u);
  for (const auto& op : r.history.ops()) {
    EXPECT_TRUE(op.ok);
    EXPECT_GE(op.completed, op.invoked);
  }
}

TEST(AppClient, WriteRatioIsRespected) {
  ExperimentParams p;
  p.protocol = "rowa-async";
  p.write_ratio = 0.3;
  p.requests_per_client = 1000;
  const auto r = run_experiment(p);
  const double measured =
      static_cast<double>(r.completed_writes) /
      static_cast<double>(r.completed_reads + r.completed_writes);
  EXPECT_NEAR(measured, 0.3, 0.04);
}

TEST(AppClient, ThinkTimeStretchesWallClock) {
  ExperimentParams fast;
  fast.protocol = "rowa-async";
  fast.requests_per_client = 50;
  ExperimentParams slow = fast;
  slow.think_time = sim::milliseconds(100);
  const auto rf = run_experiment(fast);
  const auto rs = run_experiment(slow);
  EXPECT_GT(rs.sim_duration, rf.sim_duration + sim::seconds(4));
}

// ---------------------------------------------------------------------------
// Front end: the at-most-once table and its ack floors
// ---------------------------------------------------------------------------

// A service client whose reads finish only when the test finishes them.
class ManualClient final : public protocols::ServiceClient {
 public:
  void read(ObjectId, ReadCallback done) override {
    reads.push_back(std::move(done));
  }
  void write(ObjectId, Value, WriteCallback done) override {
    writes.push_back(std::move(done));
  }
  bool on_message(const sim::Envelope&) override { return false; }
  void cancel_all() override {
    reads.clear();
    writes.clear();
  }

  std::vector<ReadCallback> reads;
  std::vector<WriteCallback> writes;
};

// The rpc ids of the AppReplies that reach the client node.
class ReplySink final : public sim::Actor {
 public:
  void on_message(const sim::Envelope& env) override {
    if (std::holds_alternative<msg::AppReply>(env.body)) {
      replies.push_back(env.rpc_id);
    }
  }
  std::vector<RequestId> replies;
};

// One server hosting a front end over a ManualClient, and one client node.
class FrontEndTable : public ::testing::Test {
 protected:
  FrontEndTable()
      : world_(sim::Topology(topo()), 1),
        client_(std::make_shared<ManualClient>()),
        fe_(world_, kServer, client_) {
    server_.add_handler([this](const sim::Envelope& e) {
      return fe_.on_message(e);
    });
    world_.attach(kServer, server_);
    world_.attach(kClient, sink_);
  }

  static sim::Topology::Params topo() {
    sim::Topology::Params p;
    p.num_servers = 1;
    p.num_clients = 1;
    return p;
  }

  // Send a read under `rpc` carrying ack floor `floor`, and deliver it.
  void request(std::uint64_t rpc, std::uint64_t floor) {
    msg::AppRequest req;
    req.op = msg::OpKind::kRead;
    req.object = ObjectId(1);
    req.settled_below = RequestId(floor);
    world_.send(kClient, kServer, RequestId(rpc), std::move(req));
    world_.run_for(sim::milliseconds(10));
  }
  // Finish the i-th read the front end executed, and deliver its reply.
  void finish_read(std::size_t i) {
    client_->reads.at(i)(true, VersionedValue{});
    world_.run_for(sim::milliseconds(10));
  }
  [[nodiscard]] std::size_t replies_to(std::uint64_t rpc) const {
    return static_cast<std::size_t>(std::count(
        sink_.replies.begin(), sink_.replies.end(), RequestId(rpc)));
  }

  static constexpr NodeId kServer{0};
  static constexpr NodeId kClient{1};
  sim::World world_;
  std::shared_ptr<ManualClient> client_;
  FrontEnd fe_;
  EdgeNode server_;
  ReplySink sink_;
};

TEST_F(FrontEndTable, InFlightRetransmissionSendsAndExecutesNothing) {
  request(1, 1);
  ASSERT_EQ(client_->reads.size(), 1u);
  request(1, 1);
  EXPECT_EQ(client_->reads.size(), 1u) << "executed twice";
  EXPECT_TRUE(sink_.replies.empty());
  finish_read(0);
  EXPECT_EQ(replies_to(1), 1u) << "one reply answers both copies";
  EXPECT_EQ(fe_.cached_replies(), 1u);
}

TEST_F(FrontEndTable, CompletedRetransmissionAtOrAboveTheFloorGetsTheCache) {
  request(1, 1);
  finish_read(0);
  request(2, 1);  // a second request in flight leaves the floor at 1
  finish_read(1);
  ASSERT_EQ(fe_.cached_replies(), 2u);
  request(1, 1);  // at the floor
  request(2, 1);  // above it
  EXPECT_EQ(replies_to(1), 2u);
  EXPECT_EQ(replies_to(2), 2u);
  EXPECT_EQ(client_->reads.size(), 2u) << "a cached op re-executed";
}

TEST_F(FrontEndTable, RequestBelowTheFloorDrawsNoReplyAndNoExecution) {
  request(1, 1);
  finish_read(0);
  request(2, 2);  // settles rpc 1: its cached reply goes
  EXPECT_EQ(fe_.cached_replies(), 0u);
  request(1, 1);  // a stale duplicate of rpc 1
  EXPECT_EQ(replies_to(1), 1u);
  EXPECT_EQ(client_->reads.size(), 2u);
  // A request that finishes below the floor is answered but not kept.
  request(3, 2);
  request(4, 4);  // settles 2 and 3 while both are in flight
  finish_read(1);
  finish_read(2);
  EXPECT_EQ(replies_to(2), 1u);
  EXPECT_EQ(replies_to(3), 1u);
  EXPECT_EQ(fe_.cached_replies(), 0u);
}

TEST_F(FrontEndTable, CrashForgetsEverySession) {
  request(1, 1);
  finish_read(0);
  request(2, 2);
  request(3, 2);
  finish_read(2);
  ASSERT_EQ(fe_.cached_replies(), 1u);
  fe_.on_crash();
  EXPECT_EQ(fe_.cached_replies(), 0u);
  EXPECT_TRUE(client_->reads.empty()) << "crash must cancel in-flight ops";
  // Floor, in-flight entries and cached replies are gone: every
  // retransmission runs again.
  request(1, 1);
  request(2, 2);
  request(3, 2);
  EXPECT_EQ(client_->reads.size(), 3u);
}

// The at-most-once table follows the live requests, not the horizon: with
// loss and jitter (lost requests stay pending at the generator until the
// drain) the front ends hold no more cached replies late in the run than
// early in it.  Without ack floors every reply stays cached, and the table
// grows fourfold between the two samples.
TEST(FrontEndTableBound, CachedRepliesDoNotGrowWithTheHorizon) {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.topo.num_servers = 6;
  p.topo.num_clients = 3;
  p.topo.jitter = 0.1;
  p.write_ratio = 0.2;
  p.locality = 0.9;
  p.loss = 0.01;
  p.seed = 5;
  OpenLoopParams ol;
  ol.clients_per_site = 1000;
  ol.client_rate_hz = 0.1;  // 100 Hz per site
  ol.objects = 256;
  ol.horizon = sim::seconds(21);
  p.open_loop = ol;
  Deployment dep(p);
  ASSERT_EQ(dep.num_front_ends(), 6u);
  const auto cached = [&dep] {
    std::size_t n = 0;
    for (std::size_t i = 0; i < dep.num_front_ends(); ++i) {
      n += dep.front_end(i).cached_replies();
    }
    return n;
  };
  // The most replies held at any 100 ms sample in the second before `t`.
  const auto peak_until = [&](sim::Time t) {
    std::size_t peak = 0;
    while (dep.world().now() < t) {
      dep.world().run_for(sim::milliseconds(100));
      if (dep.world().now() > t - sim::seconds(1)) {
        peak = std::max(peak, cached());
      }
    }
    return peak;
  };
  dep.start_clients();
  const std::size_t at5 = peak_until(sim::seconds(5));
  const std::size_t at20 = peak_until(sim::seconds(20));
  EXPECT_GT(at5, 0u);
  EXPECT_LE(at20, at5) << "cached replies grew from " << at5 << " to " << at20;
  while (!dep.clients_done() && dep.world().now() < sim::seconds(120)) {
    dep.world().run_for(sim::seconds(1));
  }
  const ExperimentResult r = dep.collect();
  EXPECT_GT(r.rejected_reads + r.rejected_writes, 0u)
      << "no request was lost, so no floor was ever held back";
}

// ---------------------------------------------------------------------------
// Wire sizes
// ---------------------------------------------------------------------------

TEST(WireSizes, GrowWithPayloadContent) {
  const auto small = msg::approximate_size(
      msg::DqWrite{ObjectId(1), "x", {1, 1}});
  const auto big = msg::approximate_size(
      msg::DqWrite{ObjectId(1), std::string(1000, 'x'), {1, 1}});
  EXPECT_EQ(big - small, 999u);
}

TEST(WireSizes, DelayedInvalidationListsAreCharged) {
  msg::DqVolRenewReply empty;
  msg::DqVolRenewReply loaded;
  loaded.delayed.resize(10);
  EXPECT_GT(msg::approximate_size(loaded), msg::approximate_size(empty));
}

TEST(WireSizes, EveryAlternativeHasANonTrivialSize) {
  // Spot-check that no payload degenerates to zero (header is counted).
  EXPECT_GT(msg::approximate_size(msg::DqRead{ObjectId(1)}), 30u);
  EXPECT_GT(msg::approximate_size(msg::AeDigest{}), 30u);
  EXPECT_GT(msg::approximate_size(msg::PbSyncAck{}), 30u);
}

TEST(WireSizes, ExperimentReportsBytesPerRequest) {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.requests_per_client = 50;
  const auto r = run_experiment(p);
  EXPECT_GT(r.bytes_per_request, 100.0);
  EXPECT_GT(r.total_bytes, r.total_messages * 30);
}

}  // namespace
}  // namespace dq::workload
