// Volume prefetch (bulk revalidation) tests: warming a cold or restarted
// OQS node in one exchange instead of one miss per object.
#include <gtest/gtest.h>

#include "protocols/dq_client.h"
#include "workload/experiment.h"

namespace dq::workload {
namespace {

struct PrefetchFixture {
  PrefetchFixture() {
    ExperimentParams p;
    p.protocol = "dqvl";
    p.requests_per_client = 0;
    dep = std::make_unique<Deployment>(p);
    auto& w = dep->world();
    client = std::make_shared<protocols::DqServiceClient>(
        w, w.topology().server(0), dep->dq_config());
    writer = std::make_shared<protocols::DqServiceClient>(
        w, w.topology().server(1), dep->dq_config());
    dep->server_node(0).add_handler(
        [this](const sim::Envelope& e) { return client->on_message(e); });
    dep->server_node(1).add_handler(
        [this](const sim::Envelope& e) { return writer->on_message(e); });
  }

  void write(ObjectId o, const Value& v) {
    bool done = false;
    writer->write(o, v, [&](bool, LogicalClock) { done = true; });
    while (!done) dep->world().run_for(sim::milliseconds(5));
  }

  sim::Duration read_latency(ObjectId o, Value* out = nullptr) {
    bool done = false;
    const sim::Time t0 = dep->world().now();
    client->read(o, [&](bool, VersionedValue vv) {
      if (out != nullptr) *out = vv.value;
      done = true;
    });
    while (!done) dep->world().run_for(sim::milliseconds(5));
    return dep->world().now() - t0;
  }

  void prefetch(std::size_t server_idx, VolumeId v) {
    auto* oqs = dep->oqs_server(dep->world().topology().server(server_idx));
    ASSERT_NE(oqs, nullptr);
    bool done = false;
    oqs->prefetch(v, [&](bool ok) {
      EXPECT_TRUE(ok);
      done = true;
    });
    while (!done) dep->world().run_for(sim::milliseconds(5));
  }

  std::unique_ptr<Deployment> dep;
  std::shared_ptr<protocols::DqServiceClient> client, writer;
};

TEST(Prefetch, WarmsEveryObjectOfTheVolumeInOneExchange) {
  PrefetchFixture f;
  for (std::uint64_t k = 0; k < 20; ++k) {
    f.write(ObjectId(k), "v" + std::to_string(k));
  }
  f.prefetch(0, VolumeId(0));
  // Every read is now a hit with the correct value.
  for (std::uint64_t k = 0; k < 20; ++k) {
    Value got;
    EXPECT_LE(f.read_latency(ObjectId(k), &got), sim::milliseconds(15)) << k;
    EXPECT_EQ(got, "v" + std::to_string(k));
  }
  // And it took one fetch per contacted IQS node, not 20 object renewals.
  auto stats = f.dep->world().sent_by_type();
  EXPECT_GT(stats["DqVolFetch"], 0u);
  EXPECT_EQ(stats["DqObjRenew"] + stats["DqVolObjRenew"], 0u);
}

TEST(Prefetch, RestoresARestartedNode) {
  PrefetchFixture f;
  for (std::uint64_t k = 0; k < 5; ++k) f.write(ObjectId(k), "x");
  f.prefetch(0, VolumeId(0));
  ASSERT_LE(f.read_latency(ObjectId(2)), sim::milliseconds(15));

  const NodeId s0 = f.dep->world().topology().server(0);
  f.dep->world().crash(s0);
  f.dep->world().restart(s0);
  // Cold again.  One prefetch re-warms everything.
  f.prefetch(0, VolumeId(0));
  for (std::uint64_t k = 0; k < 5; ++k) {
    EXPECT_LE(f.read_latency(ObjectId(k)), sim::milliseconds(15)) << k;
  }
}

TEST(Prefetch, FetchedStateIsCurrentNotStale) {
  PrefetchFixture f;
  f.write(ObjectId(1), "old");
  f.prefetch(0, VolumeId(0));
  f.write(ObjectId(1), "new");  // invalidates the prefetched copy
  Value got;
  f.read_latency(ObjectId(1), &got);
  EXPECT_EQ(got, "new");
}

TEST(Prefetch, ConsistencySweepWithPeriodicPrefetch) {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.write_ratio = 0.3;
  p.requests_per_client = 60;
  p.lease_length = sim::seconds(1);
  p.seed = 81;
  p.choose_object = [](Rng&) { return ObjectId(3); };
  Deployment dep(p);
  // Periodic prefetches from a bystander node racing the workload.
  auto* oqs = dep.oqs_server(dep.world().topology().server(7));
  std::function<void()> loop = [&] {
    oqs->prefetch(VolumeId(0), [](bool) {});
    dep.world().set_timer(dep.world().topology().server(7),
                          sim::milliseconds(400), loop);
  };
  loop();
  dep.start_clients();
  while (!dep.clients_done() &&
         dep.world().now() < sim::seconds(10000)) {
    dep.world().run_for(sim::seconds(1));
  }
  const auto r = dep.collect();
  EXPECT_TRUE(r.violations.empty())
      << "first: " << r.violations.front().reason;
}

}  // namespace
}  // namespace dq::workload
