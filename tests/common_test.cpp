// Unit tests for common substrate: strong ids, logical clocks, RNG, and the
// flat index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

#include "common/flat_index.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/version.h"
#include "sim/clock.h"

namespace dq {
namespace {

TEST(TaggedId, ComparesByValue) {
  EXPECT_EQ(NodeId(3), NodeId(3));
  EXPECT_NE(NodeId(3), NodeId(4));
  EXPECT_LT(NodeId(3), NodeId(4));
}

TEST(TaggedId, Hashable) {
  std::unordered_set<ObjectId> s;
  s.insert(ObjectId(1));
  s.insert(ObjectId(1));
  s.insert(ObjectId(2));
  EXPECT_EQ(s.size(), 2u);
}

TEST(LogicalClock, OrdersByCounterThenWriter) {
  LogicalClock a{1, 5}, b{2, 1}, c{1, 6};
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);
  EXPECT_LT(c, b);
  EXPECT_EQ(LogicalClock::zero(), LogicalClock{});
}

TEST(LogicalClock, AdvanceIncrementsCounterAndStampsWriter) {
  const LogicalClock base{7, 3};
  const LogicalClock next = base.advanced_by(ClientId(9));
  EXPECT_EQ(next.counter, 8u);
  EXPECT_EQ(next.writer, 9u);
  EXPECT_GT(next, base);
}

TEST(LogicalClock, ConcurrentAdvancesAreTotallyOrdered) {
  const LogicalClock base{7, 3};
  const LogicalClock a = base.advanced_by(ClientId(1));
  const LogicalClock b = base.advanced_by(ClientId(2));
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(42);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowStaysInBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(9), 9u);
  }
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, ChanceExtremes) {
  Rng r(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(99);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 2.0);
}

TEST(DriftClock, PerfectClockIsIdentity) {
  sim::DriftClock c;
  EXPECT_EQ(c.local_time(12345), 12345);
  EXPECT_EQ(c.global_time(12345), 12345);
}

TEST(DriftClock, LocalAndGlobalAreInverse) {
  sim::DriftClock c(1000, 1.0001);
  for (sim::Time t : {sim::Time{0}, sim::Time{1000000}, sim::Time{999999999}}) {
    EXPECT_NEAR(static_cast<double>(c.global_time(c.local_time(t))),
                static_cast<double>(t), 2.0);
  }
}

TEST(DriftClock, RandomClockStaysWithinDriftEnvelope) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    auto c = sim::DriftClock::random(rng, 0.01, sim::seconds(1));
    EXPECT_GE(c.rate(), 0.99);
    EXPECT_LE(c.rate(), 1.01);
    EXPECT_GE(c.offset(), 0);
    EXPECT_LE(c.offset(), sim::seconds(1));
  }
}

TEST(VersionedValue, EqualityComparesValueAndClock) {
  VersionedValue a{"x", {1, 2}}, b{"x", {1, 2}}, c{"x", {1, 3}};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// --- FlatIndex, checked against std::map, and FlatTable ---------------------

using Reference = std::map<std::uint64_t, std::uint32_t>;

std::uint32_t expected_slot(const Reference& ref, std::uint64_t key) {
  auto it = ref.find(key);
  return it == ref.end() ? FlatIndex::kNone : it->second;
}

void expect_same(const FlatIndex& idx, const Reference& ref,
                 const std::vector<std::uint64_t>& probes) {
  ASSERT_EQ(idx.size(), ref.size());
  for (std::uint64_t k : probes) {
    ASSERT_EQ(idx.find(k), expected_slot(ref, k)) << "key " << k;
  }
}

// Insert, erase or look up `key`, on both the index and the reference.
void apply_op(FlatIndex& idx, Reference& ref, std::uint64_t key,
              std::uint64_t op, std::uint32_t slot) {
  ASSERT_EQ(idx.find(key), expected_slot(ref, key)) << "key " << key;
  if (op == 0 && ref.count(key) == 0) {
    idx.insert(key, slot);
    ref[key] = slot;
  } else if (op == 1) {
    idx.erase(key);
    ref.erase(key);
  }
}

TEST(FlatIndex, MatchesMapUnderRandomInsertEraseFind) {
  FlatIndex idx;
  Reference ref;
  Rng rng(17);
  std::vector<std::uint64_t> probes;
  for (std::uint64_t k = 0; k < 600; ++k) probes.push_back(k);
  for (std::uint32_t step = 0; step < 40000; ++step) {
    // Mostly a dense range (so erases and repeat inserts meet live keys),
    // plus far keys with high bits set, as partitioned rpc ids have.
    std::uint64_t key = rng.below(600);
    if (rng.chance(0.1)) key = rng() | (std::uint64_t{1} << 63);
    if (key >= 600 && probes.size() < 2000) probes.push_back(key);
    apply_op(idx, ref, key, rng.below(3), step);
  }
  expect_same(idx, ref, probes);
}

TEST(FlatIndex, KeyZeroIsAnOrdinaryKey) {
  FlatIndex idx;
  EXPECT_EQ(idx.find(0), FlatIndex::kNone);
  idx.erase(0);  // absent: no-op, even on an empty table
  for (std::uint64_t k = 1; k < 10; ++k) {
    idx.insert(k, static_cast<std::uint32_t>(k));
  }
  // Empty entries must not match key 0.
  EXPECT_EQ(idx.find(0), FlatIndex::kNone);
  idx.erase(0);
  EXPECT_EQ(idx.size(), 9u);
  idx.insert(0, 42);
  EXPECT_EQ(idx.find(0), 42u);
  EXPECT_EQ(idx.size(), 10u);
  idx.erase(0);
  EXPECT_EQ(idx.find(0), FlatIndex::kNone);
  for (std::uint64_t k = 1; k < 10; ++k) EXPECT_EQ(idx.find(k), k);
}

TEST(FlatIndex, CollidingKeysStayReachable) {
  FlatIndex idx;
  idx.insert(1, 1);
  const std::size_t cap = idx.capacity();
  ASSERT_GT(cap, 0u);
  // Keys sharing the last bucket, so their probe run wraps to bucket 0,
  // and keys homed at bucket 0, which the wrapped run displaces.
  std::vector<std::uint64_t> last, first;
  for (std::uint64_t k = 2; last.size() < 4 || first.size() < 3; ++k) {
    const std::size_t b = idx.bucket(k);
    if (b == cap - 1 && last.size() < 4) last.push_back(k);
    if (b == 0 && first.size() < 3) first.push_back(k);
  }
  Reference ref{{1, 1}};
  std::vector<std::uint64_t> probes{1};
  std::uint32_t slot = 100;
  for (std::uint64_t k : last) {
    idx.insert(k, slot);
    ref[k] = slot++;
    probes.push_back(k);
  }
  for (std::uint64_t k : first) {
    idx.insert(k, slot);
    ref[k] = slot++;
    probes.push_back(k);
  }
  ASSERT_EQ(idx.capacity(), cap) << "the colliding keys must share a table";
  expect_same(idx, ref, probes);
  // Erasing from the front and the middle of the runs shifts the rest back.
  for (std::uint64_t k : {last[0], first[1], last[2]}) {
    idx.erase(k);
    ref.erase(k);
    expect_same(idx, ref, probes);
  }
  // Growth rehashes the survivors to new homes.
  for (std::uint64_t k = 1000; k < 1100; ++k) {
    idx.insert(k, slot);
    ref[k] = slot++;
    probes.push_back(k);
  }
  EXPECT_GT(idx.capacity(), cap);
  expect_same(idx, ref, probes);
}

TEST(FlatIndex, GrowsAcrossSeveralDoublings) {
  FlatIndex idx;
  Reference ref;
  std::vector<std::uint64_t> probes;
  std::size_t doublings = 0;
  std::size_t cap = 0;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    // Sequential object ids, and the same ids shifted into the high bits.
    const std::uint64_t key =
        i % 2 == 0 ? i : (std::uint64_t{i} << 40) | 7;
    idx.insert(key, i);
    ref[key] = i;
    probes.push_back(key);
    probes.push_back(key + 1);
    if (idx.capacity() != cap) {
      if (cap != 0) {
        EXPECT_EQ(idx.capacity(), 2 * cap);
        ++doublings;
      }
      cap = idx.capacity();
    }
  }
  EXPECT_GE(doublings, 8u);
  EXPECT_LE(2 * idx.size(), idx.capacity());
  expect_same(idx, ref, probes);
}

TEST(FlatTable, RecordsStayPutAndWalkInCreationOrder) {
  FlatTable<std::vector<int>> table;
  EXPECT_EQ(table.find(0), nullptr);
  std::vector<int>& first = table[7];
  first.push_back(1);
  // Enough records to need many chunks: the first one must not move.
  std::vector<std::uint64_t> keys{7};
  for (std::uint64_t k = 1000; k > 0; --k) {
    if (k == 7) continue;
    table[k].push_back(static_cast<int>(k));
    keys.push_back(k);
  }
  EXPECT_EQ(&table[7], &first);
  EXPECT_EQ(table.find(7), &first);
  EXPECT_EQ(table.size(), 1000u);
  std::vector<std::uint64_t> walked;
  table.for_each([&](std::uint64_t k, const std::vector<int>& rec) {
    walked.push_back(k);
    EXPECT_EQ(rec.size(), 1u);
  });
  EXPECT_EQ(walked, keys);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(7), nullptr);
  EXPECT_TRUE(table[7].empty());  // a new record after clear() is fresh
}

TEST(FlatIndex, ClearThenReuse) {
  FlatIndex idx;
  for (std::uint32_t k = 0; k < 300; ++k) idx.insert(k, k);
  const std::size_t cap = idx.capacity();
  idx.clear();
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.capacity(), cap);
  for (std::uint64_t k = 0; k < 300; ++k) {
    EXPECT_EQ(idx.find(k), FlatIndex::kNone);
  }
  Reference ref;
  std::vector<std::uint64_t> probes;
  Rng rng(5);
  for (std::uint32_t step = 0; step < 5000; ++step) {
    const std::uint64_t key = rng.below(400);
    apply_op(idx, ref, key, rng.below(3), step + 1000);
  }
  for (std::uint64_t k = 0; k < 400; ++k) probes.push_back(k);
  expect_same(idx, ref, probes);
}

}  // namespace
}  // namespace dq
