// Batched volume-lease renewal tests: correctness (delayed invalidations
// still land, acks still trim queues), message savings, and regular
// semantics with batching enabled.
#include <gtest/gtest.h>

#include "protocols/dq_client.h"
#include "workload/experiment.h"

namespace dq::workload {
namespace {

ExperimentParams batched_params() {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.lease_length = sim::seconds(1);
  p.num_volumes = 8;
  p.proactive_renewal = true;
  p.batch_renewals = true;
  return p;
}

TEST(BatchedRenewals, KeepReadsHitAcrossLeaseBoundaries) {
  ExperimentParams p = batched_params();
  p.requests_per_client = 0;
  Deployment dep(p);
  auto& w = dep.world();
  auto client = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(0), dep.dq_config());
  dep.server_node(0).add_handler(
      [client](const sim::Envelope& e) { return client->on_message(e); });

  auto read_latency = [&](ObjectId o) {
    bool done = false;
    const sim::Time t0 = w.now();
    client->read(o, [&](bool, VersionedValue) { done = true; });
    while (!done) w.run_for(sim::milliseconds(5));
    return w.now() - t0;
  };
  // Touch all 8 volumes once (misses), starting the batched loop.
  for (std::uint64_t k = 0; k < 8; ++k) read_latency(ObjectId(k));
  // Ride across several lease boundaries: everything stays a hit because
  // the batch refreshes all leases proactively.
  for (int round = 0; round < 5; ++round) {
    w.run_for(sim::milliseconds(900));
    for (std::uint64_t k = 0; k < 8; ++k) {
      EXPECT_LE(read_latency(ObjectId(k)), sim::milliseconds(15))
          << "round " << round << " obj " << k;
    }
  }
  EXPECT_GT(w.sent_by_type()["DqVolRenewBatch"], 0u);
}

TEST(BatchedRenewals, OneBatchCoversManyVolumes) {
  ExperimentParams p = batched_params();
  p.requests_per_client = 0;
  Deployment dep(p);
  auto& w = dep.world();
  auto client = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(0), dep.dq_config());
  dep.server_node(0).add_handler(
      [client](const sim::Envelope& e) { return client->on_message(e); });
  for (std::uint64_t k = 0; k < 8; ++k) {
    bool done = false;
    client->read(ObjectId(k), [&](bool, VersionedValue) { done = true; });
    while (!done) w.run_for(sim::milliseconds(5));
  }
  const auto singles_before = w.sent_by_type()["DqVolRenew"];
  w.run_for(sim::seconds(10));  // many renewal periods
  // All proactive traffic is batched: per-volume renewals do not grow.
  EXPECT_EQ(w.sent_by_type()["DqVolRenew"], singles_before);
  const auto batches = w.sent_by_type()["DqVolRenewBatch"];
  EXPECT_GT(batches, 0u);
  // Coarse amortization check: 8 volumes x ~20 rounds would need ~160
  // per-volume messages per IQS member; batches are far fewer.
  EXPECT_LT(batches, 160u);
}

TEST(BatchedRenewals, DelayedInvalidationsStillArriveViaBatch) {
  ExperimentParams p = batched_params();
  p.requests_per_client = 0;
  Deployment dep(p);
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
    while (!f) w.run_for(sim::milliseconds(5));
  };

  bool done = false;
  writer->write(ObjectId(3), "v1", [&](bool, LogicalClock) { done = true; });
  spin(done);
  done = false;
  VersionedValue vv;
  reader->read(ObjectId(3), [&](bool, VersionedValue got) {
    vv = got;
    done = true;
  });
  spin(done);
  ASSERT_EQ(vv.value, "v1");

  // Cut server 0 off; write v2 (completes via lease expiry, queues a
  // delayed invalidation); reconnect; the batched renewal must deliver it.
  const NodeId s0 = w.topology().server(0);
  w.set_up(s0, false);
  done = false;
  writer->write(ObjectId(3), "v2", [&](bool, LogicalClock) { done = true; });
  spin(done);
  w.set_up(s0, true);
  w.run_for(sim::seconds(3));  // a few batched renewal rounds

  done = false;
  reader->read(ObjectId(3), [&](bool, VersionedValue got) {
    vv = got;
    done = true;
  });
  spin(done);
  EXPECT_EQ(vv.value, "v2");
  // The queue at the IQS side was trimmed by the batch ack.
  const VolumeId v = dep.dq_config()->volumes.volume_of(ObjectId(3));
  std::size_t residual = 0;
  for (NodeId i : dep.dq_config()->iqs->members()) {
    residual += dep.iqs_server(i)->delayed_queue_size(v, s0);
  }
  EXPECT_EQ(residual, 0u);
}

TEST(BatchedRenewals, RegularSemanticsSweep) {
  for (std::uint64_t seed : {51ull, 52ull}) {
    ExperimentParams p = batched_params();
    p.write_ratio = 0.35;
    p.requests_per_client = 70;
    p.max_drift = 0.01;
    p.seed = seed;
    p.choose_object = [](Rng& rng) { return ObjectId(rng.below(16)); };
    const auto r = run_experiment(p);
    EXPECT_TRUE(r.violations.empty())
        << "seed " << seed << ": " << r.violations.front().reason;
  }
}

}  // namespace
}  // namespace dq::workload
