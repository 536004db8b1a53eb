// Tests for the paper's future-work extensions implemented here:
//   * atomic-semantics client (section 6) -- read write-back,
//   * finite object leases (footnote 4),
//   * grid-quorum IQS (section 6).
#include <gtest/gtest.h>

#include <memory>

#include "protocols/dq_client.h"
#include "workload/experiment.h"

namespace dq::workload {
namespace {

// ---------------------------------------------------------------------------
// Atomic semantics
// ---------------------------------------------------------------------------

TEST(AtomicSemantics, SweepPassesAtomicChecker) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    ExperimentParams p;
    p.protocol = "dqvl-atomic";
    p.write_ratio = 0.4;
    p.requests_per_client = 60;
    p.lease_length = sim::milliseconds(800);
    p.seed = seed;
    p.choose_object = [](Rng&) { return ObjectId(9); };
    const auto r = run_experiment(p);
    const auto atomic_violations = r.history.check_atomic();
    EXPECT_TRUE(atomic_violations.empty())
        << "seed " << seed << ": " << atomic_violations.front().reason;
  }
}

TEST(AtomicSemantics, ReadsPayTheConfirmationRound) {
  ExperimentParams reg;
  reg.protocol = "dqvl";
  reg.write_ratio = 0.05;
  reg.requests_per_client = 150;
  reg.seed = 5;
  ExperimentParams atom = reg;
  atom.protocol = "dqvl-atomic";
  const double reg_read = run_experiment(reg).read_ms.mean();
  const double atom_read = run_experiment(atom).read_ms.mean();
  // A confirmation write-quorum round costs ~one WAN RTT (80 ms).
  EXPECT_GT(atom_read, reg_read + 60.0);
  EXPECT_LT(atom_read, reg_read + 140.0);
}

// Deterministic new-old inversion: plain DQVL (regular) exposes it; the
// atomic client cannot.
class InversionScenario {
 public:
  explicit InversionScenario(bool atomic) {
    ExperimentParams p;
    p.protocol = atomic ? "dqvl-atomic" : "dqvl";
    p.lease_length = sim::seconds(4);
    p.requests_per_client = 0;
    dep = std::make_unique<Deployment>(p);
    auto& w = dep->world();
    auto make = [&](std::size_t idx) -> std::shared_ptr<protocols::ServiceClient> {
      const NodeId n = w.topology().server(idx);
      std::shared_ptr<protocols::ServiceClient> c;
      if (atomic) {
        c = std::make_shared<protocols::DqAtomicServiceClient>(
            w, n, dep->dq_config());
      } else {
        c = std::make_shared<protocols::DqServiceClient>(w, n,
                                                         dep->dq_config());
      }
      dep->server_node(idx).add_handler(
          [c](const sim::Envelope& e) { return c->on_message(e); });
      return c;
    };
    writer = make(5);
    reader_a = make(6);
    reader_b = make(7);
  }

  // Run until `flag` or `cap` sim-time elapses; returns flag.
  bool spin(const bool& flag, sim::Duration cap) {
    const sim::Time deadline = dep->world().now() + cap;
    while (!flag && dep->world().now() < deadline) {
      dep->world().run_for(sim::milliseconds(10));
    }
    return flag;
  }

  std::unique_ptr<Deployment> dep;
  std::shared_ptr<protocols::ServiceClient> writer, reader_a, reader_b;
};

TEST(AtomicSemantics, PlainDqvlAllowsNewOldInversion) {
  InversionScenario s(/*atomic=*/false);
  auto& w = s.dep->world();
  const ObjectId o(1);

  bool done = false;
  s.writer->write(o, "v1", [&](bool, LogicalClock) { done = true; });
  ASSERT_TRUE(s.spin(done, sim::seconds(30)));
  done = false;
  VersionedValue seen_b0;
  s.reader_b->read(o, [&](bool, VersionedValue vv) {
    seen_b0 = vv;
    done = true;
  });
  ASSERT_TRUE(s.spin(done, sim::seconds(30)));
  ASSERT_EQ(seen_b0.value, "v1");  // server 7 now holds valid leases

  // Server 7 (+ nobody else) splits off; its own loopback still works.
  w.faults().set_group(w.topology().server(7), 1);

  // Write v2: blocked on server 7's lease; reader A meanwhile renews and
  // observes v2 before the write completes.
  bool w2_done = false;
  s.writer->write(o, "v2", [&](bool, LogicalClock) { w2_done = true; });
  w.run_for(sim::milliseconds(500));
  EXPECT_FALSE(w2_done) << "write should still be blocked on server 7";

  bool ra_done = false;
  VersionedValue seen_a;
  sim::Time ra_completed = 0;
  s.reader_a->read(o, [&](bool, VersionedValue vv) {
    seen_a = vv;
    ra_completed = w.now();
    ra_done = true;
  });
  ASSERT_TRUE(s.spin(ra_done, sim::seconds(2)));
  EXPECT_EQ(seen_a.value, "v2") << "reader A renews into the new value";
  EXPECT_FALSE(w2_done);

  // Reader B (on the split-off server 7, leases still valid) now reads v1:
  // legal under regular semantics, a new-old inversion under atomic.
  bool rb_done = false;
  VersionedValue seen_b;
  s.reader_b->read(o, [&](bool, VersionedValue vv) {
    seen_b = vv;
    rb_done = true;
  });
  ASSERT_TRUE(s.spin(rb_done, sim::seconds(2)));
  EXPECT_EQ(seen_b.value, "v1");
  EXPECT_GT(seen_a.clock, seen_b.clock) << "that is the inversion";

  // Formalize with the checkers.
  History h;
  h.record({ClientId(6), msg::OpKind::kRead, true, o, ra_completed - 1,
            ra_completed, seen_a.value, seen_a.clock});
  h.record({ClientId(7), msg::OpKind::kRead, true, o, ra_completed + 1,
            w.now(), seen_b.value, seen_b.clock});
  h.record({ClientId(5), msg::OpKind::kWrite, true, o, 0, 1, "v1",
            seen_b.clock});
  h.record({ClientId(5), msg::OpKind::kWrite, false, o, 2, 0, "v2",
            seen_a.clock});  // never completed
  EXPECT_TRUE(h.check_regular().empty());
  EXPECT_FALSE(h.check_atomic().empty());
}

TEST(AtomicSemantics, AtomicClientPreventsTheInversion) {
  InversionScenario s(/*atomic=*/true);
  auto& w = s.dep->world();
  const ObjectId o(1);

  bool done = false;
  s.writer->write(o, "v1", [&](bool, LogicalClock) { done = true; });
  ASSERT_TRUE(s.spin(done, sim::seconds(30)));
  done = false;
  s.reader_b->read(o, [&](bool, VersionedValue) { done = true; });
  ASSERT_TRUE(s.spin(done, sim::seconds(30)));

  w.faults().set_group(w.topology().server(7), 1);

  bool w2_done = false;
  s.writer->write(o, "v2", [&](bool, LogicalClock) { w2_done = true; });
  w.run_for(sim::milliseconds(200));

  // Reader A's atomic read observes v2 and CONFIRMS it before returning:
  // once it returns, no node can serve anything older.  (Two mechanisms can
  // make that true -- either reader B's lease set already lost quorum to
  // the confirmation invalidations, or the confirmation blocks until B's
  // lease expires.  Which one fires depends on the random quorums; the
  // atomicity outcome below is what matters.)
  bool ra_done = false;
  VersionedValue seen_a;
  s.reader_a->read(o, [&](bool ok, VersionedValue vv) {
    ASSERT_TRUE(ok);
    seen_a = vv;
    ra_done = true;
  });
  ASSERT_TRUE(s.spin(ra_done, sim::seconds(30)));
  EXPECT_EQ(seen_a.value, "v2");

  // Reader B must now be unable to return the stale v1: inside the
  // partition its read blocks (no IQS read quorum can validate it) ...
  bool rb_done = false;
  VersionedValue seen_b;
  s.reader_b->read(o, [&](bool, VersionedValue vv) {
    seen_b = vv;
    rb_done = true;
  });
  w.run_for(sim::seconds(8));
  EXPECT_FALSE(rb_done)
      << "a stale read slipped through: got '" << seen_b.value << "'";

  // ... and after the partition heals, it returns the NEW value.
  w.faults().heal();
  ASSERT_TRUE(s.spin(rb_done, sim::seconds(60)));
  EXPECT_EQ(seen_b.value, "v2");
  EXPECT_GE(seen_b.clock, seen_a.clock) << "no new-old inversion";
}

// ---------------------------------------------------------------------------
// Finite object leases (footnote 4)
// ---------------------------------------------------------------------------

ExperimentParams finite_obj_params() {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.lease_length = sim::seconds(30);          // long volume lease
  p.object_lease_length = sim::seconds(1);    // short object leases
  p.requests_per_client = 0;
  return p;
}

TEST(FiniteObjectLeases, ReadMissesAgainAfterObjectLeaseExpiry) {
  Deployment dep(finite_obj_params());
  auto& w = dep.world();
  auto client = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(0), dep.dq_config());
  dep.server_node(0).add_handler(
      [client](const sim::Envelope& e) { return client->on_message(e); });

  auto read_latency = [&]() {
    bool done = false;
    sim::Time t0 = w.now();
    sim::Duration lat = 0;
    client->read(ObjectId(1), [&](bool, VersionedValue) {
      lat = w.now() - t0;
      done = true;
    });
    while (!done) w.run_for(sim::milliseconds(10));
    return lat;
  };

  const auto miss1 = read_latency();
  const auto hit = read_latency();
  EXPECT_GE(miss1, sim::milliseconds(70));
  EXPECT_LE(hit, sim::milliseconds(15));
  // Let the object lease lapse (the volume lease is still live).
  w.run_for(sim::seconds(2));
  const auto miss2 = read_latency();
  EXPECT_GE(miss2, sim::milliseconds(70))
      << "expired object lease must force a renewal";
}

TEST(FiniteObjectLeases, ExpiredObjectLeaseSuppressesInvalidations) {
  Deployment dep(finite_obj_params());
  auto& w = dep.world();
  auto reader = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(0), dep.dq_config());
  auto writer = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(1), dep.dq_config());
  dep.server_node(0).add_handler(
      [reader](const sim::Envelope& e) { return reader->on_message(e); });
  dep.server_node(1).add_handler(
      [writer](const sim::Envelope& e) { return writer->on_message(e); });

  auto spin = [&](bool& f) {
    while (!f) w.run_for(sim::milliseconds(10));
  };
  bool done = false;
  writer->write(ObjectId(1), "v1", [&](bool, LogicalClock) { done = true; });
  spin(done);
  done = false;
  reader->read(ObjectId(1), [&](bool, VersionedValue) { done = true; });
  spin(done);

  // Wait out the object lease; the volume lease stays valid.
  w.run_for(sim::seconds(2));
  const auto invals_before = w.sent_by_type()["DqInval"];
  done = false;
  writer->write(ObjectId(1), "v2", [&](bool, LogicalClock) { done = true; });
  spin(done);
  EXPECT_EQ(w.sent_by_type()["DqInval"], invals_before)
      << "no invalidation needed once the object lease lapsed";
  // And no delayed-invalidation entry accumulates either.
  const VolumeId v = dep.dq_config()->volumes.volume_of(ObjectId(1));
  for (NodeId i : dep.dq_config()->iqs->members()) {
    EXPECT_EQ(dep.iqs_server(i)->delayed_queue_size(
                  v, w.topology().server(0)),
              0u);
  }
  // Correctness: the reader still converges on v2.
  done = false;
  VersionedValue vv;
  reader->read(ObjectId(1), [&](bool, VersionedValue got) {
    vv = got;
    done = true;
  });
  spin(done);
  EXPECT_EQ(vv.value, "v2");
}

TEST(FiniteObjectLeases, RegularSemanticsSweep) {
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    ExperimentParams p;
    p.protocol = "dqvl";
    p.lease_length = sim::seconds(2);
    p.object_lease_length = sim::milliseconds(400);
    p.write_ratio = 0.4;
    p.requests_per_client = 60;
    p.max_drift = 0.01;
    p.seed = seed;
    p.choose_object = [](Rng&) { return ObjectId(2); };
    const auto r = run_experiment(p);
    EXPECT_TRUE(r.violations.empty())
        << "seed " << seed << ": " << r.violations.front().reason;
  }
}

// ---------------------------------------------------------------------------
// Grid-quorum IQS (section 6)
// ---------------------------------------------------------------------------

TEST(GridIqs, RegularSemanticsSweep) {
  for (std::uint64_t seed : {21ull, 22ull, 23ull}) {
    ExperimentParams p;
    p.protocol = "dqvl";
    p.iqs = workload::QuorumSpec::grid(2, 2);
    p.write_ratio = 0.4;
    p.requests_per_client = 60;
    p.seed = seed;
    p.choose_object = [](Rng&) { return ObjectId(4); };
    const auto r = run_experiment(p);
    EXPECT_EQ(r.rejected_reads + r.rejected_writes, 0u);
    EXPECT_TRUE(r.violations.empty())
        << "seed " << seed << ": " << r.violations.front().reason;
  }
}

TEST(GridIqs, SmallerReadQuorumThanMajority) {
  // A 3x3 grid reads from 3 nodes (one per column) where a majority of 9
  // reads from 5 -- the "reduce the overall system load" motivation.
  ExperimentParams p;
  p.protocol = "dqvl";
  p.topo.num_servers = 9;
  p.iqs = workload::QuorumSpec::grid(3, 3);
  Deployment dep(p);
  EXPECT_EQ(dep.dq_config()->iqs->quorum_size(quorum::Kind::kRead), 3u);
  EXPECT_EQ(dep.dq_config()->iqs->quorum_size(quorum::Kind::kWrite), 5u);
}

}  // namespace
}  // namespace dq::workload
