// Handler-level unit tests for the OQS server: condition C, the renewal
// QRPC variation (which request type goes to which IQS node), invalidation
// handling, epoch transitions, and delayed-invalidation application --
// Figure 5's pseudo-code pinned message by message.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/oqs_server.h"
#include "workload/node.h"

namespace dq::core {
namespace {

class OqsHarness : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kIqsA = 0;
  static constexpr std::uint32_t kIqsB = 1;
  static constexpr std::uint32_t kOqs = 2;
  static constexpr std::uint32_t kClient = 3;

  OqsHarness() {
    sim::Topology::Params tp;
    tp.num_servers = 4;
    tp.num_clients = 0;
    tp.processing_delay = 0;
    world = std::make_unique<sim::World>(sim::Topology(tp), 11);

    // IQS = {A, B} with read and write quorums of 2 (both nodes), so C
    // requires valid leases from BOTH -- deterministic renewal targets.
    auto cfg = std::make_shared<DqConfig>();
    cfg->iqs = std::make_shared<quorum::ThresholdQuorum>(
        std::vector<NodeId>{NodeId(kIqsA), NodeId(kIqsB)}, 2, 2);
    cfg->oqs = quorum::ThresholdQuorum::read_one(
        std::vector<NodeId>{NodeId(kOqs)});
    cfg->lease_length = sim::seconds(5);
    config = cfg;

    oqs = std::make_unique<OqsServer>(*world, NodeId(kOqs), config);
    oqs_node.add_handler(
        [this](const sim::Envelope& e) { return oqs->on_message(e); });
    world->attach(NodeId(kOqs), oqs_node);
    world->attach(NodeId(kIqsA), iqs_a);
    world->attach(NodeId(kIqsB), iqs_b);
    world->attach(NodeId(kClient), client);
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
    template <typename T>
    std::vector<sim::Envelope> envelopes_of() const {
      std::vector<sim::Envelope> out;
      for (const auto& e : received) {
        if (std::holds_alternative<T>(e.body)) out.push_back(e);
      }
      return out;
    }
  };

  // Grant the OQS node leases from an IQS node by replying to its renewals.
  void grant_all_from(Capture& iqs_capture, std::uint32_t iqs_id,
                      const Value& value, LogicalClock lc,
                      msg::Epoch epoch = 0) {
    for (const auto& env : iqs_capture.received) {
      if (const auto* m = std::get_if<msg::DqVolObjRenew>(&env.body)) {
        msg::DqVolObjRenewReply r;
        r.vol = {m->volume, {}, config->lease_length, epoch,
                 m->requestor_time};
        r.obj = {m->object, value, lc, epoch, sim::kTimeInfinity,
                 m->requestor_time};
        world->reply(NodeId(iqs_id), env, r);
      } else if (const auto* m2 = std::get_if<msg::DqVolRenew>(&env.body)) {
        world->reply(NodeId(iqs_id), env,
                     msg::DqVolRenewReply{m2->volume, {},
                                          config->lease_length, epoch,
                                          m2->requestor_time});
      } else if (const auto* m3 = std::get_if<msg::DqObjRenew>(&env.body)) {
        world->reply(NodeId(iqs_id), env,
                     msg::DqObjRenewReply{m3->object, value, lc, epoch,
                                          sim::kTimeInfinity,
                                          m3->requestor_time});
      }
    }
    iqs_capture.received.clear();
    world->run_for(sim::milliseconds(200));
  }

  void send_read(std::uint64_t rpc = 77) {
    world->send(NodeId(kClient), NodeId(kOqs), RequestId(rpc),
                msg::DqRead{ObjectId(1)});
    world->run_for(sim::milliseconds(200));
  }

  std::unique_ptr<sim::World> world;
  std::shared_ptr<const DqConfig> config;
  std::unique_ptr<OqsServer> oqs;
  workload::EdgeNode oqs_node;
  Capture iqs_a, iqs_b, client;
};

TEST_F(OqsHarness, ColdReadSendsCombinedRenewalsToTheFullReadQuorum) {
  send_read();
  // Nothing valid: case (a) of the QRPC variation -- combined renewals.
  EXPECT_EQ(iqs_a.of<msg::DqVolObjRenew>().size(), 1u);
  EXPECT_EQ(iqs_b.of<msg::DqVolObjRenew>().size(), 1u);
  EXPECT_TRUE(client.of<msg::DqReadReply>().empty()) << "C not yet true";
}

TEST_F(OqsHarness, ReplyArrivesOnlyAfterBothGrants) {
  send_read();
  grant_all_from(iqs_a, kIqsA, "v", {3, 1});
  EXPECT_TRUE(client.of<msg::DqReadReply>().empty())
      << "one grant is not a read quorum";
  EXPECT_FALSE(oqs->condition_c(ObjectId(1)));
  grant_all_from(iqs_b, kIqsB, "v", {3, 1});
  auto replies = client.of<msg::DqReadReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].value, "v");
  EXPECT_EQ(replies[0].clock, (LogicalClock{3, 1}));
  EXPECT_TRUE(oqs->condition_c(ObjectId(1)));
}

TEST_F(OqsHarness, WarmReadIsAnsweredLocally) {
  send_read();
  grant_all_from(iqs_a, kIqsA, "v", {3, 1});
  grant_all_from(iqs_b, kIqsB, "v", {3, 1});
  const auto msgs_before =
      iqs_a.received.size() + iqs_b.received.size();
  send_read(/*rpc=*/78);
  EXPECT_EQ(client.of<msg::DqReadReply>().size(), 2u);
  EXPECT_EQ(iqs_a.received.size() + iqs_b.received.size(), msgs_before)
      << "a hit must not contact the IQS";
}

TEST_F(OqsHarness, ReplyCarriesHighestValidClock) {
  send_read();
  grant_all_from(iqs_a, kIqsA, "older", {3, 1});
  grant_all_from(iqs_b, kIqsB, "newer", {4, 1});
  auto replies = client.of<msg::DqReadReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].value, "newer");
  EXPECT_EQ(replies[0].clock, (LogicalClock{4, 1}));
}

TEST_F(OqsHarness, InvalidationFlipsValidityAndIsAcked) {
  send_read();
  grant_all_from(iqs_a, kIqsA, "v", {3, 1});
  grant_all_from(iqs_b, kIqsB, "v", {3, 1});
  ASSERT_TRUE(oqs->condition_c(ObjectId(1)));

  world->send(NodeId(kIqsA), NodeId(kOqs), RequestId(500),
              msg::DqInval{ObjectId(1), {5, 1}});
  world->run_for(sim::milliseconds(200));
  auto acks = iqs_a.of<msg::DqInvalAck>();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].clock, (LogicalClock{5, 1}));
  EXPECT_FALSE(oqs->object_lease_valid(ObjectId(1), NodeId(kIqsA)));
  EXPECT_FALSE(oqs->condition_c(ObjectId(1)));
  // The volume lease itself is unaffected.
  EXPECT_TRUE(oqs->volume_lease_valid(VolumeId(0), NodeId(kIqsA)));
}

TEST_F(OqsHarness, StaleInvalidationIsIgnoredButStillAcked) {
  send_read();
  grant_all_from(iqs_a, kIqsA, "v", {3, 1});
  grant_all_from(iqs_b, kIqsB, "v", {3, 1});
  world->send(NodeId(kIqsA), NodeId(kOqs), RequestId(501),
              msg::DqInval{ObjectId(1), {2, 1}});  // older than the grant
  world->run_for(sim::milliseconds(200));
  EXPECT_EQ(iqs_a.of<msg::DqInvalAck>().size(), 1u);
  EXPECT_TRUE(oqs->object_lease_valid(ObjectId(1), NodeId(kIqsA)))
      << "an older invalidation must not clobber a newer grant";
}

TEST_F(OqsHarness, DelayedInvalidationsApplyBeforeTheLeaseIsUsedAndAreAcked) {
  send_read();
  grant_all_from(iqs_a, kIqsA, "v", {3, 1});
  grant_all_from(iqs_b, kIqsB, "v", {3, 1});

  // A renewal reply whose delayed list invalidates the object: validity
  // from A must flip even though the volume lease was just extended.
  msg::DqVolRenewReply r;
  r.volume = VolumeId(0);
  r.delayed = {{ObjectId(1), {6, 1}}};
  r.lease_length = config->lease_length;
  r.epoch = 0;
  r.requestor_time = world->local_now(NodeId(kOqs));
  world->send_tagged(NodeId(kIqsA), NodeId(kOqs), RequestId(0), r, true);
  world->run_for(sim::milliseconds(200));
  EXPECT_FALSE(oqs->object_lease_valid(ObjectId(1), NodeId(kIqsA)));
  EXPECT_TRUE(oqs->volume_lease_valid(VolumeId(0), NodeId(kIqsA)));
  auto acks = iqs_a.of<msg::DqVolRenewAck>();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].applied_up_to, (LogicalClock{6, 1}));
}

TEST_F(OqsHarness, EpochAdvanceInvalidatesAllObjectLeasesFromThatNode) {
  send_read();
  grant_all_from(iqs_a, kIqsA, "v", {3, 1});
  grant_all_from(iqs_b, kIqsB, "v", {3, 1});
  ASSERT_TRUE(oqs->condition_c(ObjectId(1)));

  // A volume renewal with a bumped epoch: the object lease granted under
  // epoch 0 dies.
  msg::DqVolRenewReply r;
  r.volume = VolumeId(0);
  r.lease_length = config->lease_length;
  r.epoch = 1;
  r.requestor_time = world->local_now(NodeId(kOqs));
  world->send_tagged(NodeId(kIqsA), NodeId(kOqs), RequestId(0), r, true);
  world->run_for(sim::milliseconds(200));
  EXPECT_FALSE(oqs->object_lease_valid(ObjectId(1), NodeId(kIqsA)));
  EXPECT_FALSE(oqs->condition_c(ObjectId(1)));
}

TEST_F(OqsHarness, LeaseExpiryEndsConditionC) {
  send_read();
  grant_all_from(iqs_a, kIqsA, "v", {3, 1});
  grant_all_from(iqs_b, kIqsB, "v", {3, 1});
  ASSERT_TRUE(oqs->condition_c(ObjectId(1)));
  world->run_for(sim::seconds(6));  // past the 5 s lease
  EXPECT_FALSE(oqs->condition_c(ObjectId(1)));
  EXPECT_FALSE(oqs->volume_lease_valid(VolumeId(0), NodeId(kIqsA)));
}

TEST_F(OqsHarness, ExpiredVolumeWithValidObjectSendsVolumeRenewalOnly) {
  send_read();
  grant_all_from(iqs_a, kIqsA, "v", {3, 1});
  grant_all_from(iqs_b, kIqsB, "v", {3, 1});
  world->run_for(sim::seconds(6));  // volume expired; object lease infinite
  iqs_a.received.clear();
  iqs_b.received.clear();
  send_read(/*rpc=*/79);
  // Case (b) of the QRPC variation: volume renewal only.
  EXPECT_EQ(iqs_a.of<msg::DqVolRenew>().size(), 1u);
  EXPECT_TRUE(iqs_a.of<msg::DqVolObjRenew>().empty());
  EXPECT_TRUE(iqs_a.of<msg::DqObjRenew>().empty());
}

TEST_F(OqsHarness, InvalidObjectWithValidVolumeSendsObjectRenewalOnly) {
  send_read();
  grant_all_from(iqs_a, kIqsA, "v", {3, 1});
  grant_all_from(iqs_b, kIqsB, "v", {3, 1});
  world->send(NodeId(kIqsA), NodeId(kOqs), RequestId(502),
              msg::DqInval{ObjectId(1), {9, 1}});
  world->run_for(sim::milliseconds(100));
  iqs_a.received.clear();
  iqs_b.received.clear();
  send_read(/*rpc=*/80);
  // Case (c): object renewal to A (volume still valid); B is fully valid...
  // but B's grant has clock 3 < 9, so the reply must wait for A's renewal
  // carrying the newer value -- exactly the concurrent-write dance from the
  // correctness argument (section 3.3).
  EXPECT_EQ(iqs_a.of<msg::DqObjRenew>().size(), 1u);
  EXPECT_TRUE(iqs_a.of<msg::DqVolRenew>().empty());
}

// --- which replies re-check which pending reads ----------------------------
//
// The grants below are unsolicited (rpc id 0): no QRPC call owns them, so
// only the server's own re-check of pending reads can answer a read before
// its call's 400 ms retransmission timer fires.

class OqsPokeRules : public OqsHarness {
 protected:
  void send_unsolicited(std::uint32_t from, msg::Payload body) {
    world->send_tagged(NodeId(from), NodeId(kOqs), RequestId(0),
                       std::move(body), /*is_reply=*/true);
  }
  msg::DqVolRenewReply volume_grant(msg::Epoch epoch = 0) {
    return {VolumeId(0), {}, config->lease_length, epoch,
            world->local_now(NodeId(kOqs))};
  }
  // At clock 5, the clock warm_then_invalidate invalidates at.
  msg::DqObjRenewReply object_grant(ObjectId o, msg::Epoch epoch = 0) {
    return {o, "v", {5, 1}, epoch, sim::kTimeInfinity,
            world->local_now(NodeId(kOqs))};
  }
  // Answer a read from both IQS nodes, then invalidate it at node `from`
  // (clock 5), so the next read of object 1 misses on `from` alone.
  void warm_then_invalidate(std::uint32_t from) {
    send_read();
    grant_all_from(iqs_a, kIqsA, "v", {3, 1});
    grant_all_from(iqs_b, kIqsB, "v", {3, 1});
    world->send(NodeId(from), NodeId(kOqs), RequestId(500),
                msg::DqInval{ObjectId(1), {5, 1}});
    world->run_for(sim::milliseconds(100));
    iqs_a.received.clear();
    iqs_b.received.clear();
    client.received.clear();
  }
  std::vector<std::uint64_t> answered_rpcs() const {
    std::vector<std::uint64_t> out;
    for (const auto& e : client.envelopes_of<msg::DqReadReply>()) {
      out.push_back(e.rpc_id.value());
    }
    return out;
  }
};

TEST_F(OqsPokeRules, VolumeOnlyReplyCompletesAReadWhoseObjectLeasesHold) {
  send_read();
  grant_all_from(iqs_a, kIqsA, "v", {3, 1});
  grant_all_from(iqs_b, kIqsB, "v", {3, 1});
  world->run_for(sim::seconds(6));  // volume leases lapse; object leases hold
  client.received.clear();
  send_read(/*rpc=*/79);  // t = 200 ms after the send; retry at 440 ms
  ASSERT_EQ(oqs->pending_reads(), 1u);
  send_unsolicited(kIqsA, volume_grant());
  send_unsolicited(kIqsB, volume_grant());
  world->run_for(sim::milliseconds(100));  // grants land at 240 ms
  EXPECT_EQ(answered_rpcs(), std::vector<std::uint64_t>{79})
      << "the second volume grant makes C true and must answer the read";
  EXPECT_EQ(oqs->pending_reads(), 0u);
}

TEST_F(OqsPokeRules, VolumeEpochCatchUpAnswersTheReadAtOnce) {
  warm_then_invalidate(kIqsA);
  send_read(/*rpc=*/79);  // misses on A's object lease only
  ASSERT_EQ(iqs_a.of<msg::DqObjRenew>().size(), 1u);
  // A grants the object under epoch 1 while the held volume epoch is 0:
  // the grant does not count yet.
  send_unsolicited(kIqsA, object_grant(ObjectId(1), /*epoch=*/1));
  world->run_for(sim::milliseconds(60));
  EXPECT_TRUE(answered_rpcs().empty());
  EXPECT_FALSE(oqs->condition_c(ObjectId(1)));
  EXPECT_TRUE(oqs->volume_lease_valid(VolumeId(0), NodeId(kIqsA)));
  // A volume reply carrying epoch 1 extends a lease that is still valid,
  // but moves the epoch: the read is answered now, not at its retry.
  send_unsolicited(kIqsA, volume_grant(/*epoch=*/1));
  world->run_for(sim::milliseconds(100));  // 360 ms after the send
  EXPECT_EQ(answered_rpcs(), std::vector<std::uint64_t>{79});
  EXPECT_EQ(oqs->pending_reads(), 0u);
}

TEST_F(OqsPokeRules, OneGrantAnswersTwoReadsOfOneObjectInArrivalOrder) {
  warm_then_invalidate(kIqsB);
  world->send(NodeId(kClient), NodeId(kOqs), RequestId(81),
              msg::DqRead{ObjectId(1)});
  world->run_for(sim::milliseconds(10));
  world->send(NodeId(kClient), NodeId(kOqs), RequestId(82),
              msg::DqRead{ObjectId(1)});
  world->run_for(sim::milliseconds(100));
  ASSERT_EQ(oqs->pending_reads(), 2u);
  send_unsolicited(kIqsB, object_grant(ObjectId(1)));
  world->run_for(sim::milliseconds(100));
  EXPECT_EQ(answered_rpcs(), (std::vector<std::uint64_t>{81, 82}));
  EXPECT_EQ(oqs->pending_reads(), 0u);
}

TEST_F(OqsPokeRules, AnotherObjectsGrantOrAnInvalidationAnswersNothing) {
  warm_then_invalidate(kIqsB);
  send_read(/*rpc=*/79);
  ASSERT_EQ(iqs_b.of<msg::DqObjRenew>().size(), 1u);
  send_unsolicited(kIqsB, object_grant(ObjectId(2)));
  world->send(NodeId(kIqsA), NodeId(kOqs), RequestId(501),
              msg::DqInval{ObjectId(1), {2, 1}});  // stale: changes nothing
  world->run_for(sim::milliseconds(100));
  EXPECT_TRUE(answered_rpcs().empty());
  EXPECT_EQ(oqs->pending_objects(), std::vector<ObjectId>{ObjectId(1)});
  // B's answer to the read's own renewal completes it.
  grant_all_from(iqs_b, kIqsB, "v", {5, 1});
  EXPECT_EQ(answered_rpcs(), std::vector<std::uint64_t>{79});
}

TEST_F(OqsHarness, CrashClearsAllSoftState) {
  send_read();
  grant_all_from(iqs_a, kIqsA, "v", {3, 1});
  grant_all_from(iqs_b, kIqsB, "v", {3, 1});
  ASSERT_TRUE(oqs->condition_c(ObjectId(1)));
  oqs->on_crash();
  EXPECT_FALSE(oqs->condition_c(ObjectId(1)));
  EXPECT_TRUE(oqs->cached(ObjectId(1)).value.empty());
  EXPECT_EQ(oqs->pending_reads(), 0u);
}

}  // namespace
}  // namespace dq::core
