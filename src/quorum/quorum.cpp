#include "quorum/quorum.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.h"

namespace dq::quorum {

QuorumSystem::QuorumSystem(std::vector<NodeId> members)
    : members_(std::move(members)) {
  DQ_INVARIANT(!members_.empty(), "a quorum system needs members");
  DQ_INVARIANT(members_.size() <= kMaxMembers,
               "a quorum system has at most kMaxMembers members");
  std::sort(members_.begin(), members_.end());
  DQ_INVARIANT(std::adjacent_find(members_.begin(), members_.end()) ==
                   members_.end(),
               "quorum members must be distinct");
}

bool QuorumSystem::is_member(NodeId n) const {
  return std::binary_search(members_.begin(), members_.end(), n);
}

std::optional<std::size_t> QuorumSystem::position(NodeId n) const {
  const auto it = std::lower_bound(members_.begin(), members_.end(), n);
  if (it == members_.end() || *it != n) return std::nullopt;
  return static_cast<std::size_t>(it - members_.begin());
}

// ---------------------------------------------------------------------------
// ThresholdQuorum
// ---------------------------------------------------------------------------

ThresholdQuorum::ThresholdQuorum(std::vector<NodeId> members,
                                 std::size_t read_size, std::size_t write_size)
    : QuorumSystem(std::move(members)),
      read_size_(read_size),
      write_size_(write_size) {
  DQ_INVARIANT(read_size_ >= 1 && read_size_ <= members_.size(),
               "read quorum size out of range");
  DQ_INVARIANT(write_size_ >= 1 && write_size_ <= members_.size(),
               "write quorum size out of range");
  DQ_INVARIANT(read_size_ + write_size_ > members_.size(),
               "read and write quorums must intersect (r + w > n)");
  DQ_INVARIANT(2 * write_size_ > members_.size(),
               "write quorums must pairwise intersect (2w > n)");
}

Pick ThresholdQuorum::pick(Kind kind, Rng& rng,
                          std::optional<NodeId> prefer) const {
  Pick out;
  const bool use_prefer = prefer && is_member(*prefer);
  if (use_prefer) out.push_back(*prefer);
  const std::size_t need = quorum_size(kind) - out.size();
  if (need == 0) return out;  // the preferred node alone is the quorum
  // Fill the rest with a uniform sample of the remaining members: lay them
  // out after the preferred node, in order, and run a partial Fisher-Yates
  // over them.  A quorum that needs every remaining member takes them in
  // order and draws nothing.
  const std::size_t base = out.size_;
  std::size_t n = 0;
  for (NodeId m : members_) {
    if (!(use_prefer && m == *prefer)) out.ids_[base + n++] = m;
  }
  NodeId* pool = out.ids_ + base;
  if (need < n) {
    for (std::size_t i = 0; i < need; ++i) {
      std::swap(pool[i], pool[i + rng.below(n - i)]);
    }
  }
  out.size_ += need;  // need <= n: quorums never outnumber the members
  return out;
}

bool ThresholdQuorum::is_quorum(Kind kind, const Positions& acked) const {
  return acked.count() >= quorum_size(kind);
}

std::unique_ptr<ThresholdQuorum> ThresholdQuorum::majority(
    std::vector<NodeId> members) {
  const std::size_t q = members.size() / 2 + 1;
  return std::make_unique<ThresholdQuorum>(std::move(members), q, q);
}

std::unique_ptr<ThresholdQuorum> ThresholdQuorum::rowa(
    std::vector<NodeId> members) {
  const std::size_t n = members.size();
  return std::make_unique<ThresholdQuorum>(std::move(members), 1, n);
}

std::unique_ptr<ThresholdQuorum> ThresholdQuorum::read_one(
    std::vector<NodeId> members) {
  return rowa(std::move(members));  // same structure; named for intent
}

// ---------------------------------------------------------------------------
// GridQuorum
// ---------------------------------------------------------------------------

GridQuorum::GridQuorum(std::vector<NodeId> members, std::size_t rows,
                       std::size_t cols)
    : QuorumSystem(std::move(members)), rows_(rows), cols_(cols) {
  DQ_INVARIANT(rows_ * cols_ == members_.size(),
               "grid dimensions must cover the member set exactly");
  DQ_INVARIANT(rows_ >= 1 && cols_ >= 1, "degenerate grid");
}

Pick GridQuorum::pick(Kind kind, Rng& rng,
                      std::optional<NodeId> prefer) const {
  Pick out;
  // Row cover: one member from every column.  If `prefer` is a member, use
  // it to cover its own column.
  std::optional<std::size_t> prefer_col;
  if (prefer) {
    if (const auto k = position(*prefer)) prefer_col = *k % cols_;
  }
  for (std::size_t c = 0; c < cols_; ++c) {
    if (prefer_col && c == *prefer_col) {
      out.push_back(*prefer);
    } else {
      out.push_back(at(rng.below(rows_), c));
    }
  }
  if (kind == Kind::kWrite) {
    // Plus one full column (randomly chosen).
    const std::size_t c = rng.below(cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
      const NodeId n = at(r, c);
      if (std::find(out.begin(), out.end(), n) == out.end()) out.push_back(n);
    }
  }
  return out;
}

bool GridQuorum::is_quorum(Kind kind, const Positions& acked) const {
  // Row cover: every column has at least one acked member.
  for (std::size_t c = 0; c < cols_; ++c) {
    bool covered = false;
    for (std::size_t r = 0; r < rows_ && !covered; ++r) {
      covered = acked.test(r * cols_ + c);
    }
    if (!covered) return false;
  }
  if (kind == Kind::kRead) return true;
  // Write additionally needs one fully-acked column.
  for (std::size_t c = 0; c < cols_; ++c) {
    bool full = true;
    for (std::size_t r = 0; r < rows_ && full; ++r) {
      full = acked.test(r * cols_ + c);
    }
    if (full) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Enumeration helpers
// ---------------------------------------------------------------------------

namespace {

std::vector<NodeId> subset_of(const std::vector<NodeId>& members,
                              std::uint32_t mask) {
  std::vector<NodeId> s;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (mask & (1u << i)) s.push_back(members[i]);
  }
  return s;
}

// A subset is a *minimal-or-larger* quorum iff is_quorum says so; for
// intersection checking we only need: for every pair of subsets (A read
// quorum, B write quorum) with A and B disjoint, not both can be quorums.
}  // namespace

IntersectionReport check_intersection(const QuorumSystem& qs) {
  IntersectionReport rep;
  const auto& m = qs.members();
  DQ_INVARIANT(m.size() <= 20, "enumeration limited to 20 members");
  const std::uint32_t limit = 1u << m.size();
  // For every subset S: if S is a read (resp. write) quorum, then its
  // complement must NOT contain a write quorum, i.e. the complement must not
  // be a write quorum superset.  Checking the complement directly suffices
  // because is_quorum is monotone.
  for (std::uint32_t s = 0; s < limit && (rep.read_write_ok &&
                                          rep.write_write_ok);
       ++s) {
    const std::uint32_t comp = ~s & (limit - 1);
    const bool comp_is_write = qs.is_quorum(Kind::kWrite, Positions(comp));
    if (comp_is_write && qs.is_quorum(Kind::kRead, Positions(s))) {
      rep.read_write_ok = false;
      rep.counterexample_a = subset_of(m, s);
      rep.counterexample_b = subset_of(m, comp);
    }
    if (comp_is_write && qs.is_quorum(Kind::kWrite, Positions(s))) {
      rep.write_write_ok = false;
      rep.counterexample_a = subset_of(m, s);
      rep.counterexample_b = subset_of(m, comp);
    }
  }
  return rep;
}

double exact_availability(const QuorumSystem& qs, Kind kind, double p_down) {
  const auto& m = qs.members();
  DQ_INVARIANT(m.size() <= 25, "enumeration limited to 25 members");
  const std::uint32_t limit = 1u << m.size();
  double av = 0.0;
  for (std::uint32_t s = 0; s < limit; ++s) {
    const Positions up(s);
    if (!qs.is_quorum(kind, up)) continue;
    const auto k = up.count();
    av += std::pow(1.0 - p_down, static_cast<double>(k)) *
          std::pow(p_down, static_cast<double>(m.size() - k));
  }
  return av;
}

}  // namespace dq::quorum
