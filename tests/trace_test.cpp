// Tracing subsystem tests: the tracer itself, the world's network/fault
// events, and the protocol decision points that tests and examples rely on.
#include <gtest/gtest.h>

#include <sstream>

#include "protocols/dq_client.h"
#include "workload/experiment.h"

namespace dq::workload {
namespace {

TEST(Tracer, DisabledByDefaultAndFree) {
  sim::Tracer t;
  EXPECT_FALSE(t.enabled());
  t.emit(0, NodeId(1), "x", "y");
  EXPECT_TRUE(t.events().empty());
}

TEST(Tracer, RecordsFiltersCountsAndDumps) {
  sim::Tracer t;
  t.enable();
  t.emit(sim::milliseconds(1), NodeId(1), "read", "hit obj 5");
  t.emit(sim::milliseconds(2), NodeId(2), "write", "write-through obj 5");
  t.emit(sim::milliseconds(3), NodeId(1), "read", "miss obj 6");
  EXPECT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.count("read"), 2u);
  EXPECT_EQ(t.count("write"), 1u);
  EXPECT_EQ(t.filter("read").size(), 2u);
  EXPECT_EQ(t.filter("").size(), 3u);

  std::ostringstream os;
  t.dump(os, "read", 1);  // only the most recent read event
  const std::string dumped = os.str();
  EXPECT_NE(dumped.find("miss obj 6"), std::string::npos);
  EXPECT_EQ(dumped.find("hit obj 5"), std::string::npos);

  t.clear();
  EXPECT_TRUE(t.events().empty());
}

TEST(Trace, WorldRecordsNetworkAndFaultEvents) {
  sim::Topology::Params tp;
  tp.num_servers = 2;
  tp.num_clients = 0;
  sim::World w{sim::Topology(tp), 1};
  w.tracer().enable();

  struct Sink final : sim::Actor {
    void on_message(const sim::Envelope&) override {}
  } a, b;
  w.attach(NodeId(0), a);
  w.attach(NodeId(1), b);

  w.send(NodeId(0), NodeId(1), RequestId(1), msg::Read{ObjectId(1)});
  w.crash(NodeId(1));
  w.restart(NodeId(1));
  EXPECT_EQ(w.tracer().count("net"), 1u);
  EXPECT_EQ(w.tracer().count("fault"), 2u);
  EXPECT_NE(w.tracer().events()[0].detail.find("send Read ->"),
            std::string::npos);
}

// Protocol decision points: drive one miss/hit/write cycle and assert the
// recorded decisions directly.
TEST(Trace, DqvlDecisionsAreRecorded) {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.requests_per_client = 0;
  Deployment dep(p);
  auto& w = dep.world();
  w.tracer().enable();

  auto client = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(0), dep.dq_config());
  auto writer = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(1), dep.dq_config());
  dep.server_node(0).add_handler(
      [client](const sim::Envelope& e) { return client->on_message(e); });
  dep.server_node(1).add_handler(
      [writer](const sim::Envelope& e) { return writer->on_message(e); });

  auto spin = [&](bool& f) {
    while (!f) w.run_for(sim::milliseconds(10));
  };
  bool done = false;
  writer->write(ObjectId(7), "v1", [&](bool, LogicalClock) { done = true; });
  spin(done);
  // Cold write: suppressed on every IQS node that processed it.
  std::size_t suppress = 0, through = 0;
  for (const auto& e : w.tracer().filter("write")) {
    suppress += e.detail.find("write-suppress") == 0 ? 1 : 0;
    through += e.detail.find("write-through") == 0 ? 1 : 0;
  }
  EXPECT_GT(suppress, 0u);
  EXPECT_EQ(through, 0u);

  done = false;
  client->read(ObjectId(7), [&](bool, VersionedValue) { done = true; });
  spin(done);
  done = false;
  client->read(ObjectId(7), [&](bool, VersionedValue) { done = true; });
  spin(done);
  const auto reads = w.tracer().filter("read");
  ASSERT_GE(reads.size(), 2u);
  EXPECT_NE(reads.front().detail.find("miss"), std::string::npos);
  EXPECT_NE(reads.back().detail.find("hit"), std::string::npos);

  // A write after the read goes through somewhere.
  done = false;
  writer->write(ObjectId(7), "v2", [&](bool, LogicalClock) { done = true; });
  spin(done);
  through = 0;
  for (const auto& e : w.tracer().filter("write")) {
    through += e.detail.find("write-through") == 0 ? 1 : 0;
  }
  EXPECT_GT(through, 0u);

  // Lease grants were recorded for the renewals.
  EXPECT_GT(w.tracer().count("lease"), 0u);
}

TEST(Trace, DelayedInvalAndEpochEventsAreRecorded) {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.lease_length = sim::seconds(1);
  p.max_delayed_per_volume = 2;
  p.iqs = workload::QuorumSpec::majority(1);  // single IQS node sees every write: deterministic GC
  p.requests_per_client = 0;
  Deployment dep(p);
  auto& w = dep.world();
  w.tracer().enable();

  // The singleton IQS lives on server 0; keep the reader elsewhere so we
  // can partition it without taking the IQS down.
  auto reader = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(2), dep.dq_config());
  auto writer = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(1), dep.dq_config());
  dep.server_node(2).add_handler(
      [reader](const sim::Envelope& e) { return reader->on_message(e); });
  dep.server_node(1).add_handler(
      [writer](const sim::Envelope& e) { return writer->on_message(e); });

  auto spin = [&](bool& f) {
    while (!f) w.run_for(sim::milliseconds(10));
  };
  for (std::uint64_t k = 0; k < 4; ++k) {
    bool d1 = false, d2 = false;
    writer->write(ObjectId(k), "v1", [&](bool, LogicalClock) { d1 = true; });
    spin(d1);
    reader->read(ObjectId(k), [&](bool, VersionedValue) { d2 = true; });
    spin(d2);
  }
  w.set_up(w.topology().server(2), false);
  for (std::uint64_t k = 0; k < 4; ++k) {
    bool d = false;
    writer->write(ObjectId(k), "v2", [&](bool, LogicalClock) { d = true; });
    spin(d);
  }
  std::size_t delayed = 0, epoch_bumps = 0;
  for (const auto& e : w.tracer().filter("lease")) {
    delayed += e.detail.find("delayed inval") == 0 ? 1 : 0;
    epoch_bumps += e.detail.find("epoch bump") == 0 ? 1 : 0;
  }
  EXPECT_GT(delayed, 0u);
  EXPECT_GT(epoch_bumps, 0u);
}

}  // namespace
}  // namespace dq::workload
