// Handler-level unit tests for the IQS server: drive raw wire messages at a
// single IqsServer instance and inspect replies and state directly.  These
// pin down the per-message semantics of Figure 4's pseudo-code.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/iqs_server.h"
#include "workload/node.h"

namespace dq::core {
namespace {

// A harness with one IQS node (server 0), two OQS nodes (servers 1, 2), and
// a probe node (server 3) from which we inject client traffic.  Replies and
// invalidations are captured verbatim.
class IqsHarness : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kIqs = 0;
  static constexpr std::uint32_t kOqsA = 1;
  static constexpr std::uint32_t kOqsB = 2;
  static constexpr std::uint32_t kProbe = 3;

  IqsHarness() {
    sim::Topology::Params tp;
    tp.num_servers = 4;
    tp.num_clients = 0;
    tp.processing_delay = 0;  // unit tests look at logic, not latency
    world = std::make_unique<sim::World>(sim::Topology(tp), 7);

    auto cfg = std::make_shared<DqConfig>(DqConfig::headline(
        {NodeId(kOqsA), NodeId(kOqsB)}, {NodeId(kIqs)}, sim::seconds(5)));
    config = cfg;

    iqs = std::make_unique<IqsServer>(*world, NodeId(kIqs), config);
    iqs_node.add_handler(
        [this](const sim::Envelope& e) { return iqs->on_message(e); });
    world->attach(NodeId(kIqs), iqs_node);
    world->attach(NodeId(kOqsA), capture_a);
    world->attach(NodeId(kOqsB), capture_b);
    world->attach(NodeId(kProbe), capture_probe);
  }

  struct Capture final : sim::Actor {
    void on_message(const sim::Envelope& env) override {
      received.push_back(env);
    }
    std::vector<sim::Envelope> received;

    template <typename T>
    std::vector<T> of() const {
      std::vector<T> out;
      for (const auto& e : received) {
        if (const T* m = std::get_if<T>(&e.body)) out.push_back(*m);
      }
      return out;
    }
  };

  // Send from `src` to the IQS node and run the world dry.
  void inject(std::uint32_t src, msg::Payload body,
              std::uint64_t rpc = 999) {
    world->send(NodeId(src), NodeId(kIqs), RequestId(rpc), std::move(body));
    world->run_for(sim::seconds(1));
  }

  std::unique_ptr<sim::World> world;
  std::shared_ptr<const DqConfig> config;
  std::unique_ptr<IqsServer> iqs;
  workload::EdgeNode iqs_node;
  Capture capture_a, capture_b, capture_probe;
};

TEST_F(IqsHarness, LcReadReturnsGlobalClock) {
  inject(kProbe, msg::DqLcRead{ObjectId(1)});
  auto replies = capture_probe.of<msg::DqLcReadReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].clock, LogicalClock::zero());

  inject(kProbe, msg::DqWrite{ObjectId(1), "v", {5, 3}});
  inject(kProbe, msg::DqLcRead{ObjectId(1)});
  replies = capture_probe.of<msg::DqLcReadReply>();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[1].clock, (LogicalClock{5, 3}));
}

TEST_F(IqsHarness, ColdWriteAcksWithoutInvalidations) {
  inject(kProbe, msg::DqWrite{ObjectId(1), "v1", {1, 1}});
  EXPECT_EQ(capture_probe.of<msg::DqWriteAck>().size(), 1u);
  EXPECT_TRUE(capture_a.of<msg::DqInval>().empty());
  EXPECT_TRUE(capture_b.of<msg::DqInval>().empty());
  EXPECT_EQ(iqs->last_write_clock(ObjectId(1)), (LogicalClock{1, 1}));
  EXPECT_EQ(iqs->value_of(ObjectId(1)), "v1");
}

TEST_F(IqsHarness, StaleWriteDoesNotOverwriteButIsAcked) {
  inject(kProbe, msg::DqWrite{ObjectId(1), "new", {5, 1}});
  inject(kProbe, msg::DqWrite{ObjectId(1), "old", {2, 1}}, /*rpc=*/1000);
  EXPECT_EQ(iqs->value_of(ObjectId(1)), "new");
  EXPECT_EQ(iqs->last_write_clock(ObjectId(1)), (LogicalClock{5, 1}));
  EXPECT_EQ(capture_probe.of<msg::DqWriteAck>().size(), 2u);
}

TEST_F(IqsHarness, ObjRenewGrantsValueAndInstallsCallback) {
  inject(kProbe, msg::DqWrite{ObjectId(1), "v1", {1, 1}});
  inject(kOqsA, msg::DqObjRenew{ObjectId(1), 0});
  auto replies = capture_a.of<msg::DqObjRenewReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].value, "v1");
  EXPECT_EQ(replies[0].clock, (LogicalClock{1, 1}));
  // Callback installed: lastReadLC == lastWriteLC.
  EXPECT_EQ(iqs->last_read_clock(ObjectId(1)), (LogicalClock{1, 1}));
}

TEST_F(IqsHarness, WriteAfterRenewalInvalidatesTheCachingNode) {
  inject(kProbe, msg::DqWrite{ObjectId(1), "v1", {1, 1}});
  inject(kOqsA, msg::DqVolRenew{VolumeId(0), 0});
  inject(kOqsA, msg::DqObjRenew{ObjectId(1), 0});
  inject(kProbe, msg::DqWrite{ObjectId(1), "v2", {2, 1}}, /*rpc=*/1001);
  // Node A holds a volume lease + object callback: it must be invalidated.
  auto invals = capture_a.of<msg::DqInval>();
  ASSERT_GE(invals.size(), 1u);
  EXPECT_EQ(invals[0].clock, (LogicalClock{2, 1}));
  // Node B never renewed: no invalidation for it.
  EXPECT_TRUE(capture_b.of<msg::DqInval>().empty());
  // The ack to the client is withheld until A acks (or its lease expires).
  EXPECT_EQ(capture_probe.of<msg::DqWriteAck>().size(), 1u);  // only v1's

  // Deliver A's invalidation ack; the write completes.
  world->send(NodeId(kOqsA), NodeId(kIqs), invals.empty()
                                               ? RequestId(0)
                                               : RequestId(998),
              msg::DqInvalAck{ObjectId(1), {2, 1}});
  world->run_for(sim::seconds(1));
  EXPECT_EQ(capture_probe.of<msg::DqWriteAck>().size(), 2u);
  EXPECT_EQ(iqs->last_ack_clock(ObjectId(1), NodeId(kOqsA)),
            (LogicalClock{2, 1}));
}

TEST_F(IqsHarness, WriteCompletesByLeaseExpiryWhenAckNeverComes) {
  inject(kProbe, msg::DqWrite{ObjectId(1), "v1", {1, 1}});
  inject(kOqsA, msg::DqVolRenew{VolumeId(0), 0});
  inject(kOqsA, msg::DqObjRenew{ObjectId(1), 0});
  world->set_up(NodeId(kOqsA), false);  // A will never ack

  world->send(NodeId(kProbe), NodeId(kIqs), RequestId(1002),
              msg::DqWrite{ObjectId(1), "v2", {2, 1}});
  world->run_for(sim::seconds(2));
  EXPECT_EQ(capture_probe.of<msg::DqWriteAck>().size(), 1u) << "still blocked";
  world->run_for(sim::seconds(8));  // lease (5 s) expires
  EXPECT_EQ(capture_probe.of<msg::DqWriteAck>().size(), 2u);
  // And a delayed invalidation was queued for A.
  EXPECT_GE(iqs->delayed_queue_size(VolumeId(0), NodeId(kOqsA)), 1u);
}

TEST_F(IqsHarness, VolRenewDeliversDelayedInvalidations) {
  inject(kProbe, msg::DqWrite{ObjectId(1), "v1", {1, 1}});
  inject(kOqsA, msg::DqVolRenew{VolumeId(0), 0});
  inject(kOqsA, msg::DqObjRenew{ObjectId(1), 0});
  world->set_up(NodeId(kOqsA), false);
  inject(kProbe, msg::DqWrite{ObjectId(1), "v2", {2, 1}}, 1003);
  world->run_for(sim::seconds(10));  // write completed via expiry

  world->set_up(NodeId(kOqsA), true);
  inject(kOqsA, msg::DqVolRenew{VolumeId(0), 42}, 1004);
  auto replies = capture_a.of<msg::DqVolRenewReply>();
  ASSERT_GE(replies.size(), 2u);
  const auto& renewed = replies.back();
  ASSERT_EQ(renewed.delayed.size(), 1u);
  EXPECT_EQ(renewed.delayed[0].object, ObjectId(1));
  EXPECT_EQ(renewed.delayed[0].clock, (LogicalClock{2, 1}));
  EXPECT_EQ(renewed.requestor_time, 42);

  // Acking the renewal clears the queue.
  world->send(NodeId(kOqsA), NodeId(kIqs), RequestId(0),
              msg::DqVolRenewAck{VolumeId(0), {2, 1}});
  world->run_for(sim::seconds(1));
  EXPECT_EQ(iqs->delayed_queue_size(VolumeId(0), NodeId(kOqsA)), 0u);
}

TEST_F(IqsHarness, VolObjRenewCombinesBothGrants) {
  inject(kProbe, msg::DqWrite{ObjectId(1), "v1", {1, 1}});
  inject(kOqsB, msg::DqVolObjRenew{VolumeId(0), ObjectId(1), 7});
  auto replies = capture_b.of<msg::DqVolObjRenewReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].obj.value, "v1");
  EXPECT_EQ(replies[0].vol.requestor_time, 7);
  EXPECT_TRUE(iqs->lease_valid(VolumeId(0), NodeId(kOqsB)));
}

TEST_F(IqsHarness, DuplicateWriteRetransmissionGetsSingleOutcome) {
  // Same rpc id twice: one waiter entry, but both deliveries eventually see
  // an ack (the engine's rpc-id match makes the second a no-op at the
  // client; the server simply re-acks).
  world->send(NodeId(kProbe), NodeId(kIqs), RequestId(555),
              msg::DqWrite{ObjectId(1), "v1", {1, 1}});
  world->send(NodeId(kProbe), NodeId(kIqs), RequestId(555),
              msg::DqWrite{ObjectId(1), "v1", {1, 1}});
  world->run_for(sim::seconds(1));
  EXPECT_GE(capture_probe.of<msg::DqWriteAck>().size(), 1u);
  EXPECT_EQ(iqs->value_of(ObjectId(1)), "v1");
}

TEST_F(IqsHarness, VolFetchGrantsInAscendingObjectOrder) {
  // Grant order is on the wire: it must follow object ids, not the order in
  // which the objects arrived.
  std::uint64_t rpc = 2000;
  for (std::uint64_t o : {9, 3, 7, 1}) {
    inject(kProbe, msg::DqWrite{ObjectId(o), "v", {o, 1}}, rpc++);
  }
  inject(kOqsA, msg::DqVolFetch{VolumeId(0), 0});
  auto replies = capture_a.of<msg::DqVolFetchReply>();
  ASSERT_EQ(replies.size(), 1u);
  std::vector<std::uint64_t> granted;
  for (const msg::DqObjRenewReply& g : replies[0].objects) {
    granted.push_back(g.object.value());
  }
  EXPECT_EQ(granted, (std::vector<std::uint64_t>{1, 3, 7, 9}));
}

TEST_F(IqsHarness, EpochBumpOnlyWhenLeaseExpired) {
  // Fill the delayed queue beyond any bound while the lease is valid: the
  // epoch must NOT advance (j could still be serving under it).
  inject(kOqsA, msg::DqVolRenew{VolumeId(0), 0});
  inject(kOqsA, msg::DqObjRenew{ObjectId(1), 0});
  EXPECT_EQ(iqs->epoch_of(VolumeId(0), NodeId(kOqsA)), 0u);
  // (Queue growth requires an expired lease in the first place, so this is
  // structural: enqueue implies expired implies bump is safe.)
}

TEST_F(IqsHarness, CrashDropsEnsureMachinesButKeepsDurableState) {
  inject(kProbe, msg::DqWrite{ObjectId(1), "v1", {1, 1}});
  iqs->on_crash();
  EXPECT_EQ(iqs->pending_ensures(), 0u);
  EXPECT_EQ(iqs->value_of(ObjectId(1)), "v1");
  EXPECT_EQ(iqs->last_write_clock(ObjectId(1)), (LogicalClock{1, 1}));
}

}  // namespace
}  // namespace dq::core
