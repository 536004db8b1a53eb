// Core DQVL protocol tests: read hit/miss, write suppress/through, lease-
// expiry write completion (the availability mechanism volume leases buy),
// delayed invalidations, epoch GC, crash recovery, and the paper's callback
// invariant under drifting clocks.
#include <gtest/gtest.h>

#include <memory>

#include "protocols/dq_client.h"
#include "workload/experiment.h"

namespace dq::workload {
namespace {

// A deployment plus a standalone service client embedded on a chosen edge
// server, so tests can drive individual operations.
struct Fixture {
  explicit Fixture(ExperimentParams p) : params(std::move(p)) {
    params.requests_per_client = 0;
    dep = std::make_unique<Deployment>(params);
  }

  // Embed a client on server `idx` (lazily, at most one per server).
  protocols::DqServiceClient& client_on(std::size_t idx) {
    auto& slot = clients[idx];
    if (!slot) {
      const NodeId n = dep->world().topology().server(idx);
      slot = std::make_unique<protocols::DqServiceClient>(dep->world(), n,
                                                          dep->dq_config());
      auto* raw = slot.get();
      dep->server_node(idx).add_handler(
          [raw](const sim::Envelope& e) { return raw->on_message(e); });
    }
    return *slot;
  }

  // Synchronous-style helpers: run the world until the op completes.
  struct WriteResult {
    bool ok = false;
    LogicalClock lc;
    sim::Duration latency = 0;
  };
  WriteResult write(std::size_t idx, ObjectId o, Value v,
                    sim::Duration timeout = sim::seconds(300)) {
    WriteResult r;
    bool done = false;
    const sim::Time start = dep->world().now();
    client_on(idx).write(o, std::move(v), [&](bool ok, LogicalClock lc) {
      r.ok = ok;
      r.lc = lc;
      r.latency = dep->world().now() - start;
      done = true;
    });
    const sim::Time deadline = dep->world().now() + timeout;
    while (!done && dep->world().now() < deadline) {
      dep->world().run_for(sim::milliseconds(50));
    }
    r.latency = dep->world().now() - start;
    if (!done) r.ok = false;
    return r;
  }

  struct ReadResult {
    bool completed = false;
    bool ok = false;
    VersionedValue vv;
    sim::Duration latency = 0;
  };
  ReadResult read(std::size_t idx, ObjectId o,
                  sim::Duration timeout = sim::seconds(300)) {
    ReadResult r;
    const sim::Time start = dep->world().now();
    client_on(idx).read(o, [&](bool ok, VersionedValue vv) {
      r.completed = true;
      r.ok = ok;
      r.vv = std::move(vv);
      r.latency = dep->world().now() - start;
    });
    const sim::Time deadline = dep->world().now() + timeout;
    while (!r.completed && dep->world().now() < deadline) {
      dep->world().run_for(sim::milliseconds(50));
    }
    return r;
  }

  ExperimentParams params;
  std::unique_ptr<Deployment> dep;
  std::map<std::size_t, std::unique_ptr<protocols::DqServiceClient>> clients;
};

ExperimentParams dqvl_params(sim::Duration lease = sim::seconds(10)) {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.lease_length = lease;
  return p;
}

// ---------------------------------------------------------------------------
// Read and write fast paths
// ---------------------------------------------------------------------------

TEST(DqvlCore, FirstReadMissesThenHitsLocally) {
  Fixture f(dqvl_params());
  f.write(1, ObjectId(5), "v1");
  const auto miss = f.read(0, ObjectId(5));
  EXPECT_TRUE(miss.ok);
  EXPECT_EQ(miss.vv.value, "v1");
  // Miss pays a server-server renewal round trip (~80 ms).
  EXPECT_GE(miss.latency, sim::milliseconds(70));

  const auto hit = f.read(0, ObjectId(5));
  EXPECT_EQ(hit.vv.value, "v1");
  // Hit is local: loopback + processing only.
  EXPECT_LE(hit.latency, sim::milliseconds(10));
}

TEST(DqvlCore, ColdWriteIsSuppressedNoInvalidations) {
  Fixture f(dqvl_params());
  const auto w = f.write(1, ObjectId(5), "v1");
  EXPECT_TRUE(w.ok);
  EXPECT_EQ(f.dep->world().sent_by_type()["DqInval"], 0u);
}

TEST(DqvlCore, WriteAfterReadGoesThroughWithInvalidations) {
  Fixture f(dqvl_params());
  f.write(1, ObjectId(5), "v1");
  f.read(0, ObjectId(5));  // installs callbacks for server 0
  const auto before = f.dep->world().sent_by_type()["DqInval"];
  const auto w = f.write(1, ObjectId(5), "v2");
  EXPECT_TRUE(w.ok);
  EXPECT_GT(f.dep->world().sent_by_type()["DqInval"], before);
  // And the reader sees the new value (after re-renewing).
  const auto r = f.read(0, ObjectId(5));
  EXPECT_EQ(r.vv.value, "v2");
}

TEST(DqvlCore, SecondWriteInBurstIsSuppressed) {
  // Singleton IQS: every write and renewal is processed by the same node,
  // so its callback bookkeeping fully determines suppression.  (With a
  // majority IQS, randomly selected quorums may include members with stale
  // callback knowledge, which legitimately re-invalidate.)
  ExperimentParams params = dqvl_params();
  params.iqs = workload::QuorumSpec::majority(1);
  Fixture f(params);
  f.write(1, ObjectId(5), "v1");
  f.read(0, ObjectId(5));
  f.write(1, ObjectId(5), "v2");  // write-through (invalidates server 0)
  const auto invals_after_first =
      f.dep->world().sent_by_type()["DqInval"];
  const auto w2 = f.write(1, ObjectId(5), "v3");  // burst: suppressed
  EXPECT_TRUE(w2.ok);
  EXPECT_EQ(f.dep->world().sent_by_type()["DqInval"],
            invals_after_first);
}

TEST(DqvlCore, ReadersOnDifferentServersEachRenew) {
  Fixture f(dqvl_params());
  f.write(1, ObjectId(5), "v1");
  for (std::size_t s : {0u, 2u, 3u, 7u}) {
    const auto r = f.read(s, ObjectId(5));
    EXPECT_EQ(r.vv.value, "v1") << "server " << s;
  }
}

// ---------------------------------------------------------------------------
// Volume leases: bounded write blocking (the core availability win)
// ---------------------------------------------------------------------------

TEST(DqvlCore, WriteBlockedByUnreachableReaderCompletesAtLeaseExpiry) {
  const sim::Duration lease = sim::seconds(2);
  Fixture f(dqvl_params(lease));
  f.write(1, ObjectId(5), "v1");
  f.read(0, ObjectId(5));  // server 0 now holds valid leases

  // Server 0 drops off the network; its leases remain valid for up to L.
  f.dep->world().set_up(f.dep->world().topology().server(0), false);

  const auto w = f.write(1, ObjectId(5), "v2");
  EXPECT_TRUE(w.ok);
  // The write could not be acked by server 0; it completed via lease expiry,
  // so it took noticeable time but no more than ~L (plus slack for rounds).
  EXPECT_GE(w.latency, sim::milliseconds(200));
  EXPECT_LE(w.latency, lease + sim::seconds(2));
}

TEST(DqvlCore, RecoveredReaderSeesDelayedInvalidationOnRenewal) {
  const sim::Duration lease = sim::seconds(2);
  Fixture f(dqvl_params(lease));
  f.write(1, ObjectId(5), "v1");
  f.read(0, ObjectId(5));
  const NodeId s0 = f.dep->world().topology().server(0);
  f.dep->world().set_up(s0, false);
  f.write(1, ObjectId(5), "v2");  // completes via lease expiry

  f.dep->world().set_up(s0, true);
  // Server 0's volume lease has expired; its next read must renew and MUST
  // NOT serve the stale v1.
  const auto r = f.read(0, ObjectId(5));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.vv.value, "v2");
}

TEST(DqvlCore, BasicProtocolWriteBlocksUntilReaderReturns) {
  // Contrast: without leases (section 3.1), the same scenario blocks the
  // write until the unreachable OQS node comes back.
  ExperimentParams p = dqvl_params();
  p.protocol = "dq-basic";
  Fixture f(p);
  f.write(1, ObjectId(5), "v1");
  f.read(0, ObjectId(5));
  const NodeId s0 = f.dep->world().topology().server(0);
  f.dep->world().set_up(s0, false);

  bool done = false;
  f.client_on(1).write(ObjectId(5), "v2",
                       [&](bool, LogicalClock) { done = true; });
  f.dep->world().run_for(sim::seconds(30));
  EXPECT_FALSE(done) << "basic DQ write must block while the reader is gone";

  f.dep->world().set_up(s0, true);
  f.dep->world().run_for(sim::seconds(30));
  EXPECT_TRUE(done) << "write completes once the reader acks";
}

TEST(DqvlCore, WritesProceedDespiteMinorityIqsFailure) {
  Fixture f(dqvl_params());
  // IQS = servers 0..4 (majority 3); kill two members.
  f.dep->world().set_up(f.dep->world().topology().server(3), false);
  f.dep->world().set_up(f.dep->world().topology().server(4), false);
  const auto w = f.write(6, ObjectId(9), "v1");
  EXPECT_TRUE(w.ok);
  const auto r = f.read(6, ObjectId(9));
  EXPECT_EQ(r.vv.value, "v1");
}

// ---------------------------------------------------------------------------
// Epoch GC
// ---------------------------------------------------------------------------

TEST(DqvlCore, EpochGcBoundsDelayedQueueAndForcesRevalidation) {
  ExperimentParams p = dqvl_params(sim::seconds(1));
  p.max_delayed_per_volume = 3;
  Fixture f(p);
  const NodeId s0 = f.dep->world().topology().server(0);

  // Warm leases on server 0 for several objects in the (single) volume.
  for (std::uint64_t k = 0; k < 6; ++k) {
    f.write(1, ObjectId(k), "v1");
    f.read(0, ObjectId(k));
  }
  f.dep->world().set_up(s0, false);
  // Writes while server 0 is gone: each enqueues a delayed invalidation for
  // it once its lease lapses; more than 3 distinct objects trips the GC.
  for (std::uint64_t k = 0; k < 6; ++k) {
    ASSERT_TRUE(f.write(1, ObjectId(k), "v2").ok);
  }
  const VolumeId vol = f.dep->dq_config()->volumes.volume_of(ObjectId(0));
  bool some_epoch_advanced = false;
  for (NodeId i : f.dep->dq_config()->iqs->members()) {
    auto* iqs = f.dep->iqs_server(i);
    ASSERT_NE(iqs, nullptr);
    EXPECT_LE(iqs->delayed_queue_size(vol, s0), 3u + 1u);
    some_epoch_advanced |= iqs->epoch_of(vol, s0) > 0;
  }
  EXPECT_TRUE(some_epoch_advanced);

  // After recovery the reader must still converge on fresh values.
  f.dep->world().set_up(s0, true);
  for (std::uint64_t k = 0; k < 6; ++k) {
    const auto r = f.read(0, ObjectId(k));
    EXPECT_EQ(r.vv.value, "v2") << "object " << k;
  }
}

// ---------------------------------------------------------------------------
// Crash semantics
// ---------------------------------------------------------------------------

TEST(DqvlCore, OqsCrashClearsCacheButStaysCorrect) {
  Fixture f(dqvl_params());
  f.write(1, ObjectId(5), "v1");
  f.read(0, ObjectId(5));
  const NodeId s0 = f.dep->world().topology().server(0);
  auto* oqs = f.dep->oqs_server(s0);
  ASSERT_NE(oqs, nullptr);
  EXPECT_TRUE(oqs->condition_c(ObjectId(5)));

  f.dep->world().crash(s0);
  EXPECT_FALSE(oqs->condition_c(ObjectId(5)));
  EXPECT_TRUE(oqs->cached(ObjectId(5)).value.empty());

  f.dep->world().restart(s0);
  const auto r = f.read(0, ObjectId(5));
  EXPECT_EQ(r.vv.value, "v1");  // re-renewed from the IQS
}

TEST(DqvlCore, IqsCrashKeepsDurableStateAndWriteRetransmitsComplete) {
  Fixture f(dqvl_params());
  f.write(1, ObjectId(5), "v1");
  const NodeId s2 = f.dep->world().topology().server(2);  // an IQS member
  f.dep->world().crash(s2);
  f.dep->world().restart(s2);
  auto* iqs = f.dep->iqs_server(s2);
  ASSERT_NE(iqs, nullptr);
  // Durable state survived if this node was in the write quorum; at minimum
  // the next write and read still succeed.
  const auto w = f.write(1, ObjectId(5), "v2");
  EXPECT_TRUE(w.ok);
  EXPECT_EQ(f.read(4, ObjectId(5)).vv.value, "v2");
}

// ---------------------------------------------------------------------------
// The paper's callback invariant, sampled under drifting clocks
// ---------------------------------------------------------------------------

void check_invariant(Deployment& dep, const std::vector<ObjectId>& objects) {
  const auto cfg = dep.dq_config();
  for (NodeId j : cfg->oqs->members()) {
    auto* oqs = dep.oqs_server(j);
    ASSERT_NE(oqs, nullptr);
    for (NodeId i : cfg->iqs->members()) {
      auto* iqs = dep.iqs_server(i);
      ASSERT_NE(iqs, nullptr);
      for (ObjectId o : objects) {
        const VolumeId v = cfg->volumes.volume_of(o);
        if (oqs->volume_lease_valid(v, i) && oqs->object_lease_valid(o, i)) {
          // ... then i must still consider j's lease valid, and must not
          // consider j's callback revoked.
          EXPECT_TRUE(iqs->lease_valid(v, j))
              << "lease invariant violated: i=" << i << " j=" << j;
          EXPECT_FALSE(iqs->last_read_clock(o) < iqs->last_ack_clock(o, j))
              << "callback invariant violated: i=" << i << " j=" << j
              << " o=" << o;
        }
      }
    }
  }
}

TEST(DqvlCore, CallbackInvariantHoldsUnderDriftingClocks) {
  ExperimentParams p = dqvl_params(sim::milliseconds(1500));
  p.max_drift = 0.01;  // 1% clock rate error
  p.protocol = "dqvl";
  p.requests_per_client = 120;
  p.write_ratio = 0.3;
  p.seed = 13;
  // All clients share one object to force invalidation traffic.
  p.choose_object = [](Rng&) { return ObjectId(77); };
  Deployment dep(p);
  dep.start_clients();
  const std::vector<ObjectId> objects{ObjectId(77)};
  for (int step = 0; step < 400 && !dep.clients_done(); ++step) {
    dep.world().run_for(sim::milliseconds(100));
    check_invariant(dep, objects);
  }
  EXPECT_TRUE(dep.clients_done());
  const auto r = dep.collect();
  EXPECT_TRUE(r.violations.empty())
      << "first: " << r.violations.front().reason;
}

TEST(DqvlCore, CallbackInvariantHoldsUnderDriftAndLoss) {
  ExperimentParams p = dqvl_params(sim::milliseconds(800));
  p.max_drift = 0.02;
  p.loss = 0.05;
  p.requests_per_client = 60;
  p.write_ratio = 0.4;
  p.seed = 29;
  p.choose_object = [](Rng&) { return ObjectId(3); };
  Deployment dep(p);
  dep.start_clients();
  for (int step = 0; step < 3000 && !dep.clients_done(); ++step) {
    dep.world().run_for(sim::milliseconds(100));
    check_invariant(dep, {ObjectId(3)});
  }
  EXPECT_TRUE(dep.clients_done());
  const auto r = dep.collect();
  EXPECT_TRUE(r.violations.empty());
}

}  // namespace
}  // namespace dq::workload
