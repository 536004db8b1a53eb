// Volume-granularity behavior: one short volume lease amortizes over many
// objects (the core idea borrowed from Yin et al.), volumes are isolated
// from each other, and epochs are per-(volume, node).
#include <gtest/gtest.h>

#include <memory>

#include "protocols/dq_client.h"
#include "workload/experiment.h"

namespace dq::workload {
namespace {

struct VolumeFixture {
  explicit VolumeFixture(std::size_t num_volumes,
                         sim::Duration lease = sim::seconds(5)) {
    ExperimentParams p;
    p.protocol = "dqvl";
    p.num_volumes = num_volumes;
    p.lease_length = lease;
    p.requests_per_client = 0;
    dep = std::make_unique<Deployment>(p);
    auto& w = dep->world();
    reader = std::make_shared<protocols::DqServiceClient>(
        w, w.topology().server(0), dep->dq_config());
    writer = std::make_shared<protocols::DqServiceClient>(
        w, w.topology().server(1), dep->dq_config());
    dep->server_node(0).add_handler(
        [this](const sim::Envelope& e) { return reader->on_message(e); });
    dep->server_node(1).add_handler(
        [this](const sim::Envelope& e) { return writer->on_message(e); });
  }

  sim::Duration read(ObjectId o) {
    auto& w = dep->world();
    bool done = false;
    const sim::Time t0 = w.now();
    sim::Duration lat = 0;
    reader->read(o, [&](bool, VersionedValue) {
      lat = w.now() - t0;
      done = true;
    });
    while (!done) w.run_for(sim::milliseconds(10));
    return lat;
  }

  void write(ObjectId o, const Value& v) {
    auto& w = dep->world();
    bool done = false;
    writer->write(o, v, [&](bool, LogicalClock) { done = true; });
    while (!done) w.run_for(sim::milliseconds(10));
  }

  std::unique_ptr<Deployment> dep;
  std::shared_ptr<protocols::DqServiceClient> reader, writer;
};

TEST(Volumes, OneVolumeLeaseAmortizesAcrossObjects) {
  VolumeFixture f(/*num_volumes=*/1);
  for (std::uint64_t k = 0; k < 8; ++k) f.write(ObjectId(k), "v");
  // First read: volume + object renewal (WAN round).
  EXPECT_GE(f.read(ObjectId(0)), sim::milliseconds(70));
  // Subsequent first-reads of OTHER objects still need object renewals
  // (they were never fetched) but volume-lease traffic is bounded by the
  // IQS size (random read quorums may touch members not yet holding our
  // lease), NOT by the number of objects: that is the amortization.
  auto before = f.dep->world().sent_by_type();
  const auto vol_renews_before = before["DqVolRenew"] + before["DqVolObjRenew"];
  for (std::uint64_t k = 1; k < 8; ++k) f.read(ObjectId(k));
  auto stats = f.dep->world().sent_by_type();
  const auto vol_renews_after = stats["DqVolRenew"] + stats["DqVolObjRenew"];
  EXPECT_LE(vol_renews_after - vol_renews_before, 5u)
      << "volume renewals must be bounded by IQS membership, not objects";
  const auto obj_renews = stats["DqObjRenew"];
  EXPECT_GE(obj_renews, 7u) << "each new object still fetches its value";
  // And second reads of everything are hits.
  for (std::uint64_t k = 0; k < 8; ++k) {
    EXPECT_LE(f.read(ObjectId(k)), sim::milliseconds(15)) << k;
  }
}

TEST(Volumes, SeparateVolumesRenewSeparately) {
  VolumeFixture f(/*num_volumes=*/4);
  const auto& vm = f.dep->dq_config()->volumes;
  // Objects 0 and 1 land in different volumes under the modulo map.
  ASSERT_NE(vm.volume_of(ObjectId(0)), vm.volume_of(ObjectId(1)));
  f.write(ObjectId(0), "a");
  f.write(ObjectId(1), "b");
  f.read(ObjectId(0));
  const auto combined_before =
      f.dep->world().sent_by_type()["DqVolObjRenew"];
  f.read(ObjectId(1));  // different volume: needs its own volume lease
  EXPECT_GT(f.dep->world().sent_by_type()["DqVolObjRenew"],
            combined_before);
}

TEST(Volumes, WriteToOneVolumeDoesNotDisturbAnother) {
  VolumeFixture f(/*num_volumes=*/4);
  f.write(ObjectId(0), "a");
  f.write(ObjectId(1), "b");
  f.read(ObjectId(0));
  f.read(ObjectId(1));
  // Overwrite an object in volume 0; reads of volume-1 objects stay hits.
  f.write(ObjectId(0), "a2");
  EXPECT_LE(f.read(ObjectId(1)), sim::milliseconds(15));
  // While the overwritten object itself misses.
  EXPECT_GE(f.read(ObjectId(0)), sim::milliseconds(70));
  EXPECT_EQ(f.dep->oqs_server(f.dep->world().topology().server(0))
                ->cached(ObjectId(0))
                .value,
            "a2");
}

TEST(Volumes, EpochsAreIndependentPerVolume) {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.num_volumes = 2;
  p.lease_length = sim::seconds(1);
  p.max_delayed_per_volume = 1;
  p.iqs = workload::QuorumSpec::majority(1);
  p.requests_per_client = 0;
  Deployment dep(p);
  auto& w = dep.world();
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
  // Warm both volumes at the reader (objects 0,2 -> vol 0; 1,3 -> vol 1).
  for (std::uint64_t k = 0; k < 4; ++k) {
    bool d1 = false, d2 = false;
    writer->write(ObjectId(k), "v1", [&](bool, LogicalClock) { d1 = true; });
    spin(d1);
    reader->read(ObjectId(k), [&](bool, VersionedValue) { d2 = true; });
    spin(d2);
  }
  w.set_up(w.topology().server(2), false);
  // Overflow only volume 0's delayed queue (objects 0 and 2).
  for (std::uint64_t k : {0ull, 2ull}) {
    bool d = false;
    writer->write(ObjectId(k), "v2", [&](bool, LogicalClock) { d = true; });
    spin(d);
  }
  auto* iqs = dep.iqs_server(w.topology().server(0));
  ASSERT_NE(iqs, nullptr);
  const NodeId rdr = w.topology().server(2);
  EXPECT_GT(iqs->epoch_of(VolumeId(0), rdr), 0u);
  EXPECT_EQ(iqs->epoch_of(VolumeId(1), rdr), 0u)
      << "volume 1 was untouched; its epoch must not advance";
}

}  // namespace
}  // namespace dq::workload
