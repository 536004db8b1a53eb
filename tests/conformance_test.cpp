// Pseudo-code conformance: subtle details of Figures 4 and 5 that the
// broader suites do not pin down explicitly.
#include <gtest/gtest.h>

#include <memory>

#include "core/iqs_server.h"
#include "protocols/dq_client.h"
#include "workload/experiment.h"
#include "workload/node.h"

namespace dq::workload {
namespace {

// The logical clock returned by processLCReadRequest is the node's GLOBAL
// clock ("each node in IQS maintains a logical clock logicalClock whose
// value is always at least as large as the node's largest lastWriteLC_o for
// ANY object o") -- a write to one object must advance the clock other
// objects' writers observe.
TEST(Conformance, LogicalClockIsGlobalAcrossObjects) {
  sim::Topology::Params tp;
  tp.num_servers = 2;
  tp.num_clients = 0;
  tp.processing_delay = 0;
  sim::World w{sim::Topology(tp), 3};
  auto cfg = std::make_shared<core::DqConfig>(core::DqConfig::headline(
      {NodeId(1)}, {NodeId(0)}, sim::seconds(5)));
  core::IqsServer iqs(w, NodeId(0), cfg);
  EdgeNode node;
  node.add_handler([&](const sim::Envelope& e) { return iqs.on_message(e); });
  w.attach(NodeId(0), node);

  struct Capture final : sim::Actor {
    void on_message(const sim::Envelope& env) override {
      if (const auto* r = std::get_if<msg::LcReadReply>(&env.body)) {
        last = r->clock;
      }
    }
    LogicalClock last;
  } probe;
  w.attach(NodeId(1), probe);

  w.send(NodeId(1), NodeId(0), RequestId(1),
         msg::StampedWrite{ObjectId(100), "x", {9, 1}});
  w.run_for(sim::seconds(1));
  w.send(NodeId(1), NodeId(0), RequestId(2), msg::LcRead{ObjectId(200)});
  w.run_for(sim::seconds(1));
  EXPECT_EQ(probe.last, (LogicalClock{9, 1}))
      << "LC read of object 200 must reflect the write to object 100";
}

// "if (lc > lastWriteLC_o)" -- an EQUAL clock must not re-apply (first
// writer wins for identical clocks; our clocks are unique anyway, but the
// guard must be strict).
TEST(Conformance, EqualClockWriteDoesNotClobber) {
  sim::Topology::Params tp;
  tp.num_servers = 2;
  tp.num_clients = 0;
  tp.processing_delay = 0;
  sim::World w{sim::Topology(tp), 3};
  auto cfg = std::make_shared<core::DqConfig>(core::DqConfig::headline(
      {NodeId(1)}, {NodeId(0)}, sim::seconds(5)));
  core::IqsServer iqs(w, NodeId(0), cfg);
  EdgeNode node;
  node.add_handler([&](const sim::Envelope& e) { return iqs.on_message(e); });
  w.attach(NodeId(0), node);
  struct Sink final : sim::Actor {
    void on_message(const sim::Envelope&) override {}
  } sink;
  w.attach(NodeId(1), sink);

  w.send(NodeId(1), NodeId(0), RequestId(1),
         msg::StampedWrite{ObjectId(1), "first", {5, 2}});
  w.run_for(sim::seconds(1));
  w.send(NodeId(1), NodeId(0), RequestId(2),
         msg::StampedWrite{ObjectId(1), "second", {5, 2}});
  w.run_for(sim::seconds(1));
  EXPECT_EQ(iqs.value_of(ObjectId(1)), "first");
}

// The client write protocol: the chosen clock strictly exceeds the maximum
// completed write's clock observed at an IQS read quorum, so consecutive
// writes through any clients are totally ordered consistently with real
// time.
TEST(Conformance, WriteClocksStrictlyIncreaseAcrossClients) {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.write_ratio = 1.0;
  p.requests_per_client = 30;
  p.seed = 77;
  p.choose_object = [](Rng&) { return ObjectId(4); };
  const auto r = run_experiment(p);
  // Sort completed writes by completion time; clocks must respect the order
  // for non-overlapping pairs (check_atomic covers this too, but assert the
  // raw monotonicity here for the write-only workload).
  std::vector<const OpRecord*> writes;
  for (const auto& op : r.history.ops()) {
    if (op.ok && op.kind == msg::OpKind::kWrite) writes.push_back(&op);
  }
  ASSERT_GE(writes.size(), 2u);
  for (const OpRecord* a : writes) {
    for (const OpRecord* b : writes) {
      if (a->completed <= b->invoked) {
        EXPECT_LT(a->clock, b->clock)
            << "non-overlapping writes must carry increasing clocks";
      }
    }
  }
}

// processObjRenewal must update lastReadLC even when the object was never
// written (renewal of an unknown object installs a callback for it).
TEST(Conformance, RenewalOfUnknownObjectInstallsCallback) {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.requests_per_client = 0;
  Deployment dep(p);
  auto& w = dep.world();
  auto client = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(0), dep.dq_config());
  dep.server_node(0).add_handler(
      [client](const sim::Envelope& e) { return client->on_message(e); });
  bool done = false;
  VersionedValue vv;
  client->read(ObjectId(42), [&](bool, VersionedValue got) {
    vv = got;
    done = true;
  });
  while (!done) w.run_for(sim::milliseconds(10));
  // Unwritten object: initial value, clock zero.
  EXPECT_TRUE(vv.value.empty());
  EXPECT_EQ(vv.clock, LogicalClock::zero());
  // A later write must invalidate that cached emptiness before completing,
  // and the reader then sees the write -- the callback was real.
  auto writer = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(1), dep.dq_config());
  dep.server_node(1).add_handler(
      [writer](const sim::Envelope& e) { return writer->on_message(e); });
  done = false;
  writer->write(ObjectId(42), "now-exists",
                [&](bool, LogicalClock) { done = true; });
  while (!done) w.run_for(sim::milliseconds(10));
  done = false;
  client->read(ObjectId(42), [&](bool, VersionedValue got) {
    vv = got;
    done = true;
  });
  while (!done) w.run_for(sim::milliseconds(10));
  EXPECT_EQ(vv.value, "now-exists");
}

// A read of a never-written object through the full stack returns the
// initial value and is regular.
TEST(Conformance, ReadYourOwnWriteAlwaysHolds) {
  // Read-your-writes through one front end follows from regularity (the
  // write completed before the read began).  Sweep it explicitly.
  for (std::uint64_t seed : {31ull, 32ull}) {
    ExperimentParams p;
    p.protocol = "dqvl";
    p.write_ratio = 0.5;
    p.topo.num_clients = 1;  // single client: every read follows its writes
    p.requests_per_client = 80;
    p.seed = seed;
    const auto r = run_experiment(p);
    ASSERT_TRUE(r.violations.empty());
    // Stronger: the single client's reads always return its LAST write.
    Value last_written;
    LogicalClock last_clock;
    for (const auto& op : r.history.ops()) {
      if (op.kind == msg::OpKind::kWrite) {
        last_written = op.value;
        last_clock = op.clock;
      } else if (!last_written.empty()) {
        EXPECT_EQ(op.value, last_written);
        EXPECT_EQ(op.clock, last_clock);
      }
    }
  }
}

}  // namespace
}  // namespace dq::workload
