// Quorum-system tests: construction invariants, pick/is_quorum coherence,
// grid structure, and the intersection + availability enumeration helpers.
// The parameterized suites sweep every configuration the experiments use.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "quorum/quorum.h"

namespace dq::quorum {
namespace {

// Members first, first + 1, ..., first + n - 1.
std::vector<NodeId> nodes(std::size_t n, std::uint32_t first = 0) {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(first + static_cast<std::uint32_t>(i));
  }
  return out;
}

// The positions of `ids` in q.members(); every id must be a member.
template <typename Ids>
Positions positions(const QuorumSystem& q, const Ids& ids) {
  Positions out;
  for (NodeId n : ids) {
    const auto k = q.position(n);
    EXPECT_TRUE(k.has_value()) << "node " << n.value() << " is no member";
    if (k) out.set(*k);
  }
  return out;
}
Positions positions(const QuorumSystem& q, std::initializer_list<NodeId> ids) {
  return positions<std::initializer_list<NodeId>>(q, ids);
}

// ---------------------------------------------------------------------------
// ThresholdQuorum
// ---------------------------------------------------------------------------

TEST(ThresholdQuorum, MajorityFactorySizes) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 9u, 15u}) {
    auto q = ThresholdQuorum::majority(nodes(n));
    EXPECT_EQ(q->quorum_size(Kind::kRead), n / 2 + 1) << n;
    EXPECT_EQ(q->quorum_size(Kind::kWrite), n / 2 + 1) << n;
  }
}

TEST(ThresholdQuorum, RowaFactorySizes) {
  auto q = ThresholdQuorum::rowa(nodes(7));
  EXPECT_EQ(q->quorum_size(Kind::kRead), 1u);
  EXPECT_EQ(q->quorum_size(Kind::kWrite), 7u);
}

TEST(ThresholdQuorumDeath, RejectsNonIntersectingConfig) {
  // r + w <= n must be rejected.
  EXPECT_DEATH(ThresholdQuorum(nodes(5), 2, 3), "intersect");
  // 2w <= n must be rejected (write-write intersection).
  EXPECT_DEATH(ThresholdQuorum(nodes(6), 5, 2), "pairwise");
}

TEST(ThresholdQuorumDeath, RejectsDuplicateMembers) {
  std::vector<NodeId> dup{NodeId(1), NodeId(1), NodeId(2)};
  EXPECT_DEATH(ThresholdQuorum(dup, 2, 2), "distinct");
}

TEST(ThresholdQuorum, PickReturnsExactQuorumOfMembers) {
  auto q = ThresholdQuorum::majority(nodes(9));
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    auto picked = q->pick(Kind::kRead, rng, std::nullopt);
    ASSERT_EQ(picked.size(), 5u);
    std::set<NodeId> uniq(picked.begin(), picked.end());
    EXPECT_EQ(uniq.size(), 5u);
    EXPECT_TRUE(q->is_quorum(Kind::kRead, positions(*q, uniq)));
    for (NodeId m : picked) EXPECT_TRUE(q->is_member(m));
  }
}

TEST(ThresholdQuorum, PickPrefersLocalMember) {
  auto q = ThresholdQuorum::rowa(nodes(9));  // read quorum of 1
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    auto picked = q->pick(Kind::kRead, rng, NodeId(4));
    ASSERT_EQ(picked.size(), 1u);
    EXPECT_EQ(picked[0], NodeId(4));
  }
}

TEST(ThresholdQuorum, PickIgnoresNonMemberPreference) {
  auto q = ThresholdQuorum::majority(nodes(5));
  Rng rng(1);
  auto picked = q->pick(Kind::kRead, rng, NodeId(99));
  ASSERT_EQ(picked.size(), 3u);
  for (NodeId m : picked) EXPECT_TRUE(q->is_member(m));
}

TEST(ThresholdQuorum, PickEventuallyCoversAllMembers) {
  auto q = ThresholdQuorum::majority(nodes(9));
  Rng rng(2);
  std::set<NodeId> seen;
  for (int i = 0; i < 200; ++i) {
    for (NodeId m : q->pick(Kind::kWrite, rng, std::nullopt)) seen.insert(m);
  }
  EXPECT_EQ(seen.size(), 9u);
}

// What Rng::sample_without_replacement's tests checked, now that pick runs
// the partial Fisher-Yates itself: a k-of-n sample is k distinct members,
// a quorum of the whole pool is every member, and samples cover the pool.
TEST(ThresholdQuorum, PickSamplesADistinctSubset) {
  ThresholdQuorum q(nodes(10), 4, 7);
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const Pick picked = q.pick(Kind::kRead, rng, std::nullopt);
    ASSERT_EQ(picked.size(), 4u);
    std::set<NodeId> uniq(picked.begin(), picked.end());
    EXPECT_EQ(uniq.size(), 4u);
    for (NodeId m : picked) EXPECT_LT(m.value(), 10u);
  }
}

TEST(ThresholdQuorum, PickOfTheWholePoolReturnsEveryMember) {
  auto q = ThresholdQuorum::rowa(nodes(4));
  Rng rng(5);
  const Pick picked = q->pick(Kind::kWrite, rng, std::nullopt);
  EXPECT_EQ(std::vector<NodeId>(picked.begin(), picked.end()), nodes(4));
}

TEST(ThresholdQuorum, PickSamplesCoverEveryMemberEventually) {
  ThresholdQuorum q(nodes(6), 2, 5);
  Rng rng(6);
  std::set<NodeId> seen;
  for (int i = 0; i < 200; ++i) {
    for (NodeId m : q.pick(Kind::kRead, rng, std::nullopt)) seen.insert(m);
  }
  EXPECT_EQ(seen.size(), 6u);
}

// --- pinned picks ------------------------------------------------------------
//
// Every expected value below was captured from the pick this one replaced
// (which built its sample through Rng::sample_without_replacement): QRPC
// quorums, and every rng draw after one, must stay exactly as they were.
// `next` is the generator's next draw after the pick, which pins its state.

struct Pinned {
  std::uint64_t seed;
  std::vector<std::uint32_t> ids;
  std::uint64_t next;
};

void expect_pinned(const QuorumSystem& q, Kind kind,
                   std::optional<NodeId> prefer,
                   const std::vector<Pinned>& cases) {
  for (const Pinned& c : cases) {
    Rng rng(c.seed);
    const Pick picked = q.pick(kind, rng, prefer);
    std::vector<std::uint32_t> ids;
    for (NodeId n : picked) ids.push_back(n.value());
    EXPECT_EQ(ids, c.ids) << "seed " << c.seed;
    EXPECT_EQ(rng(), c.next) << "seed " << c.seed;
  }
}

// A fresh generator's first draw for seeds 1, 7 and 42: a pick that leaves
// it there drew nothing.
constexpr std::uint64_t kFirst1 = 0xb3f2af6d0fc710c5ULL;
constexpr std::uint64_t kFirst7 = 0xb358faf74ef9765aULL;
constexpr std::uint64_t kFirst42 = 0x15780b2e0c2ec716ULL;

TEST(PinnedPick, PreferredNodeAloneIsTheQuorumAndDrawsNothing) {
  auto q = ThresholdQuorum::read_one(nodes(5, 10));
  expect_pinned(*q, Kind::kRead, NodeId(12),
                {{1, {12}, kFirst1}, {7, {12}, kFirst7}, {42, {12}, kFirst42}});
}

TEST(PinnedPick, ThresholdSampleSmallerThanThePool) {
  auto one = ThresholdQuorum::read_one(nodes(5, 10));
  expect_pinned(*one, Kind::kRead, std::nullopt,
                {{1, {12}, 0x853b559647364ceaULL},
                 {7, {14}, 0x475c3d964f482cd2ULL},
                 {42, {12}, 0x6104d9866d113a7eULL}});
  auto maj = ThresholdQuorum::majority(nodes(5, 10));
  expect_pinned(*maj, Kind::kRead, NodeId(12),
                {{1, {12, 11, 13}, 0x92f89756082a4514ULL},
                 {7, {12, 13, 14}, 0xd6f1d349952c7996ULL},
                 {42, {12, 13, 11}, 0xae17533239e499a1ULL}});
  const std::vector<Pinned> no_prefer = {
      {1, {12, 13, 14}, 0x642e1c7bc266a3a7ULL},
      {7, {14, 13, 12}, 0xfb2938731e807240ULL},
      {42, {12, 13, 14}, 0xecb8ad4703b360a1ULL}};
  expect_pinned(*maj, Kind::kWrite, std::nullopt, no_prefer);
  // A non-member preference is ignored: the same draws as no preference.
  expect_pinned(*maj, Kind::kRead, NodeId(99), no_prefer);
}

TEST(PinnedPick, QuorumOfTheWholePoolTakesItInOrderWithoutDraws) {
  auto q = ThresholdQuorum::rowa(nodes(5, 10));
  expect_pinned(*q, Kind::kWrite, NodeId(12),
                {{1, {12, 10, 11, 13, 14}, kFirst1},
                 {7, {12, 10, 11, 13, 14}, kFirst7},
                 {42, {12, 10, 11, 13, 14}, kFirst42}});
  expect_pinned(*q, Kind::kWrite, std::nullopt,
                {{1, {10, 11, 12, 13, 14}, kFirst1},
                 {7, {10, 11, 12, 13, 14}, kFirst7},
                 {42, {10, 11, 12, 13, 14}, kFirst42}});
}

TEST(PinnedPick, GridPicks) {
  GridQuorum g(nodes(9, 10), 3, 3);
  expect_pinned(g, Kind::kRead, NodeId(14),
                {{1, {13, 14, 15}, 0x92f89756082a4514ULL},
                 {7, {10, 14, 18}, 0xd6f1d349952c7996ULL},
                 {42, {10, 14, 12}, 0xae17533239e499a1ULL}});
  expect_pinned(g, Kind::kRead, std::nullopt,
                {{1, {13, 14, 18}, 0x642e1c7bc266a3a7ULL},
                 {7, {10, 17, 12}, 0xfb2938731e807240ULL},
                 {42, {10, 11, 18}, 0xecb8ad4703b360a1ULL}});
  expect_pinned(g, Kind::kWrite, NodeId(14),
                {{1, {13, 14, 15, 12, 18}, 0x642e1c7bc266a3a7ULL},
                 {7, {10, 14, 18, 13, 16}, 0xfb2938731e807240ULL},
                 {42, {10, 14, 12, 15, 18}, 0xecb8ad4703b360a1ULL}});
  GridQuorum wide(nodes(8, 10), 2, 4);
  expect_pinned(wide, Kind::kWrite, std::nullopt,
                {{1, {14, 11, 12, 17, 13}, 0x24c123126ffda722ULL},
                 {7, {10, 11, 12, 13, 14}, 0xdf6e1ce3b6218c49ULL},
                 {42, {10, 11, 16, 17, 14}, 0xc50da53101795238ULL}});
}

TEST(ThresholdQuorum, IsQuorumCountsOnlyMembers) {
  auto q = ThresholdQuorum::majority(nodes(3));  // quorum = 2
  // A non-member has no position, so it cannot be counted.
  EXPECT_FALSE(q->position(NodeId(77)).has_value());
  EXPECT_FALSE(q->position(NodeId(88)).has_value());
  EXPECT_FALSE(q->is_quorum(Kind::kRead, positions(*q, {NodeId(0)})));
  EXPECT_TRUE(
      q->is_quorum(Kind::kRead, positions(*q, {NodeId(0), NodeId(1)})));
}

// Members are numbered out of order and with gaps, so a position is never
// the node id: the constructor sorts, and position k is the k-th smallest.
std::vector<NodeId> scattered_nodes(std::size_t n) {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(static_cast<std::uint32_t>(100 - 7 * i));
  }
  return out;
}

// Every subset of `q`'s members, as positions and as node ids.
template <typename Check>
void for_every_subset(const QuorumSystem& q, Check check) {
  const auto& m = q.members();
  for (std::uint32_t mask = 0; mask < (1u << m.size()); ++mask) {
    std::set<NodeId> ids;
    for (std::size_t k = 0; k < m.size(); ++k) {
      if ((mask & (1u << k)) != 0) ids.insert(m[k]);
    }
    check(Positions(mask), ids);
  }
}

TEST(ThresholdQuorum, IsQuorumMatchesAMemberCountOnEverySubset) {
  for (std::size_t n = 1; n <= 9; ++n) {
    for (std::size_t r = 1; r <= n; ++r) {
      for (std::size_t w = 1; w <= n; ++w) {
        if (r + w <= n || 2 * w <= n) continue;  // not a valid system
        const ThresholdQuorum q(scattered_nodes(n), r, w);
        for_every_subset(q, [&](const Positions& acked,
                                const std::set<NodeId>& ids) {
          ASSERT_EQ(q.is_quorum(Kind::kRead, acked), ids.size() >= r)
              << "n=" << n << " r=" << r << " w=" << w;
          ASSERT_EQ(q.is_quorum(Kind::kWrite, acked), ids.size() >= w)
              << "n=" << n << " r=" << r << " w=" << w;
        });
      }
    }
  }
}


// ---------------------------------------------------------------------------
// GridQuorum
// ---------------------------------------------------------------------------

TEST(GridQuorum, QuorumSizes) {
  GridQuorum g(nodes(12), 3, 4);
  EXPECT_EQ(g.quorum_size(Kind::kRead), 4u);       // one per column
  EXPECT_EQ(g.quorum_size(Kind::kWrite), 6u);      // column + row cover
}

TEST(GridQuorumDeath, RejectsBadDimensions) {
  EXPECT_DEATH(GridQuorum(nodes(10), 3, 4), "cover");
}

TEST(GridQuorum, PickedReadQuorumCoversEveryColumn) {
  GridQuorum g(nodes(12), 3, 4);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    auto picked = g.pick(Kind::kRead, rng, std::nullopt);
    EXPECT_TRUE(g.is_quorum(Kind::kRead, positions(g, picked)));
  }
}

TEST(GridQuorum, PickedWriteQuorumIsWriteQuorum) {
  GridQuorum g(nodes(12), 3, 4);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    auto picked = g.pick(Kind::kWrite, rng, std::nullopt);
    EXPECT_TRUE(g.is_quorum(Kind::kWrite, positions(g, picked)));
  }
}

TEST(GridQuorum, ReadQuorumIsNotAWriteQuorum) {
  GridQuorum g(nodes(9), 3, 3);
  // One per column but no full column.
  const auto s = positions(g, {NodeId(0), NodeId(4), NodeId(8)});  // diagonal
  EXPECT_TRUE(g.is_quorum(Kind::kRead, s));
  EXPECT_FALSE(g.is_quorum(Kind::kWrite, s));
}

TEST(GridQuorum, FullColumnAloneIsNotAWriteQuorum) {
  GridQuorum g(nodes(9), 3, 3);
  // Column 0 = nodes 0, 3, 6; covers column 0 only.
  std::vector<NodeId> s{NodeId(0), NodeId(3), NodeId(6)};
  EXPECT_FALSE(g.is_quorum(Kind::kWrite, positions(g, s)));
  s.push_back(NodeId(1));
  s.push_back(NodeId(2));
  EXPECT_TRUE(g.is_quorum(Kind::kWrite, positions(g, s)));
}

TEST(GridQuorum, IsQuorumMatchesRowCoverAndFullColumnOnEverySubset) {
  for (std::size_t rows = 2; rows <= 3; ++rows) {
    for (std::size_t cols = 2; cols <= 4; ++cols) {
      const GridQuorum g(scattered_nodes(rows * cols), rows, cols);
      // The documented layout, over node ids: the k-th smallest member
      // sits at (row k / cols, column k % cols).
      auto cell = [&](std::size_t r, std::size_t c) {
        return g.members()[r * cols + c];
      };
      for_every_subset(g, [&](const Positions& acked,
                              const std::set<NodeId>& ids) {
        bool row_cover = true;
        bool full_column = false;
        for (std::size_t c = 0; c < cols; ++c) {
          std::size_t in_column = 0;
          for (std::size_t r = 0; r < rows; ++r) {
            in_column += ids.count(cell(r, c));
          }
          row_cover = row_cover && in_column > 0;
          full_column = full_column || in_column == rows;
        }
        ASSERT_EQ(g.is_quorum(Kind::kRead, acked), row_cover)
            << rows << "x" << cols;
        ASSERT_EQ(g.is_quorum(Kind::kWrite, acked), row_cover && full_column)
            << rows << "x" << cols;
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Intersection checking (property-style across every experiment config)
// ---------------------------------------------------------------------------

struct IntersectCase {
  std::string name;
  std::function<std::unique_ptr<QuorumSystem>()> make;
};

class IntersectionProperty : public ::testing::TestWithParam<IntersectCase> {};

TEST_P(IntersectionProperty, ReadWriteAndWriteWriteIntersect) {
  auto qs = GetParam().make();
  const IntersectionReport rep = check_intersection(*qs);
  EXPECT_TRUE(rep.read_write_ok);
  EXPECT_TRUE(rep.write_write_ok);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, IntersectionProperty,
    ::testing::Values(
        IntersectCase{"majority3",
                      [] { return ThresholdQuorum::majority(nodes(3)); }},
        IntersectCase{"majority5",
                      [] { return ThresholdQuorum::majority(nodes(5)); }},
        IntersectCase{"majority9",
                      [] { return ThresholdQuorum::majority(nodes(9)); }},
        IntersectCase{"rowa9",
                      [] { return ThresholdQuorum::rowa(nodes(9)); }},
        IntersectCase{"readone15",
                      [] { return ThresholdQuorum::read_one(nodes(15)); }},
        IntersectCase{"r2w8",
                      [] {
                        return std::make_unique<ThresholdQuorum>(nodes(9), 2,
                                                                 8);
                      }},
        IntersectCase{"grid3x3",
                      [] { return std::make_unique<GridQuorum>(nodes(9), 3, 3); }},
        IntersectCase{"grid2x4",
                      [] { return std::make_unique<GridQuorum>(nodes(8), 2, 4); }},
        IntersectCase{"grid4x2",
                      [] { return std::make_unique<GridQuorum>(nodes(8), 4, 2); }}),
    [](const auto& info) { return info.param.name; });

// A deliberately broken system must be caught: read one-per-column grids do
// NOT have write-write intersection if writes were (incorrectly) defined as
// read quorums.  We emulate by checking a read-vs-read disjointness case.
TEST(Intersection, DetectsNonIntersectingPair) {
  GridQuorum g(nodes(9), 3, 3);
  // Two disjoint read quorums exist (rows of the grid): the checker must
  // also verify write-write, which holds; read-read disjointness is fine.
  const auto row0 = positions(g, {NodeId(0), NodeId(1), NodeId(2)});
  const auto row1 = positions(g, {NodeId(3), NodeId(4), NodeId(5)});
  EXPECT_TRUE(g.is_quorum(Kind::kRead, row0));
  EXPECT_TRUE(g.is_quorum(Kind::kRead, row1));
}

// ---------------------------------------------------------------------------
// Exact availability enumeration vs closed forms
// ---------------------------------------------------------------------------

TEST(ExactAvailability, MatchesClosedFormForRowaRead) {
  auto q = ThresholdQuorum::rowa(nodes(5));
  const double p = 0.1;
  EXPECT_NEAR(exact_availability(*q, Kind::kRead, p), 1 - std::pow(p, 5),
              1e-12);
  EXPECT_NEAR(exact_availability(*q, Kind::kWrite, p), std::pow(1 - p, 5),
              1e-12);
}

TEST(ExactAvailability, MajorityIsSymmetricAndReasonable) {
  auto q = ThresholdQuorum::majority(nodes(5));
  const double av = exact_availability(*q, Kind::kRead, 0.1);
  EXPECT_NEAR(av, exact_availability(*q, Kind::kWrite, 0.1), 1e-12);
  // P(>=3 of 5 up) with p_up = 0.9.
  EXPECT_NEAR(av, 0.99144, 1e-4);
}

TEST(ExactAvailability, GridReadClosedForm) {
  GridQuorum g(nodes(9), 3, 3);
  const double p = 0.2;
  // One live node per column: (1 - p^3)^3.
  EXPECT_NEAR(exact_availability(g, Kind::kRead, p),
              std::pow(1 - std::pow(p, 3), 3), 1e-12);
}

TEST(ExactAvailability, ZeroAndOneFailureProbabilities) {
  auto q = ThresholdQuorum::majority(nodes(7));
  EXPECT_DOUBLE_EQ(exact_availability(*q, Kind::kRead, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(exact_availability(*q, Kind::kRead, 1.0), 0.0);
}

TEST(ExactAvailability, MonotoneInFailureProbability) {
  auto q = ThresholdQuorum::majority(nodes(9));
  double prev = 1.0;
  for (double p : {0.01, 0.05, 0.1, 0.3, 0.5, 0.9}) {
    const double av = exact_availability(*q, Kind::kRead, p);
    EXPECT_LE(av, prev + 1e-12);
    prev = av;
  }
}

}  // namespace
}  // namespace dq::quorum
