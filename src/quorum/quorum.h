// Quorum system abstractions.
//
// A quorum system over a member set defines which subsets constitute READ
// and WRITE quorums.  Correctness of the register protocols requires every
// read quorum to intersect every write quorum, and every pair of write
// quorums to intersect (for the ordering of writes); `check_intersection`
// verifies both by enumeration and is run by tests for every configuration
// used in the experiments.
//
// Implementations:
//   * ThresholdQuorum -- any r members form a read quorum, any w a write
//     quorum (covers majority, ROWA, singleton/primary, and the DQVL OQS
//     with |read| = 1 / |write| = n).
//   * GridQuorum -- Cheung et al.'s grid: a read quorum is one member from
//     every column; a write quorum is a full column plus one member from
//     every column (paper section 6 lists grid IQS as future work; we
//     implement it and benchmark it in the ablations).
#pragma once

#include <bitset>
#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"

namespace dq::quorum {

enum class Kind : std::uint8_t { kRead, kWrite };

// The widest member set a quorum system may have.
inline constexpr std::size_t kMaxMembers = 256;

// A subset of a system's members, as positions in members(): bit k stands
// for members()[k].  Fixed width, so testing a quorum allocates nothing.
using Positions = std::bitset<kMaxMembers>;

// The members one pick chose, in pick order.  A fixed buffer of kMaxMembers
// ids, so picking allocates nothing.  The buffer is not zeroed (that would
// cost every QRPC round 1 KB of stores for the one to three ids it usually
// holds); only ids below size() are ever written or read.
class Pick {
 public:
  // Not `= default`, which the union member would delete.
  Pick() {}  // NOLINT(modernize-use-equals-default)

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const NodeId* begin() const { return ids_; }
  [[nodiscard]] const NodeId* end() const { return ids_ + size_; }
  [[nodiscard]] NodeId operator[](std::size_t i) const { return ids_[i]; }

 private:
  friend class ThresholdQuorum;
  friend class GridQuorum;

  void push_back(NodeId n) { ids_[size_++] = n; }

  union {
    NodeId ids_[kMaxMembers];  // the first assignment starts its lifetime
  };
  std::size_t size_ = 0;
};

class QuorumSystem {
 public:
  virtual ~QuorumSystem() = default;

  [[nodiscard]] const std::vector<NodeId>& members() const { return members_; }
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] bool is_member(NodeId n) const;
  // n's position in members(); nullopt for a non-member.
  [[nodiscard]] std::optional<std::size_t> position(NodeId n) const;

  // Select a quorum uniformly at random, preferring to include `prefer`
  // when it is a member (the paper's QRPC "always transmits requests to the
  // local node if the local node is a member of system").
  [[nodiscard]] virtual Pick pick(Kind kind, Rng& rng,
                                  std::optional<NodeId> prefer) const = 0;

  // Does `acked` contain a quorum of the given kind?  Bits at positions
  // size() and above must be clear.
  [[nodiscard]] virtual bool is_quorum(Kind kind,
                                       const Positions& acked) const = 0;

  // Representative quorum cardinality (used by the analytical models and to
  // size QRPC fan-out).
  [[nodiscard]] virtual std::size_t quorum_size(Kind kind) const = 0;

 protected:
  explicit QuorumSystem(std::vector<NodeId> members);
  std::vector<NodeId> members_;
};

class ThresholdQuorum final : public QuorumSystem {
 public:
  ThresholdQuorum(std::vector<NodeId> members, std::size_t read_size,
                  std::size_t write_size);

  [[nodiscard]] Pick pick(Kind kind, Rng& rng,
                          std::optional<NodeId> prefer) const override;
  [[nodiscard]] bool is_quorum(Kind kind,
                               const Positions& acked) const override;
  [[nodiscard]] std::size_t quorum_size(Kind kind) const override {
    return kind == Kind::kRead ? read_size_ : write_size_;
  }

  // Common configurations.
  static std::unique_ptr<ThresholdQuorum> majority(
      std::vector<NodeId> members);
  static std::unique_ptr<ThresholdQuorum> rowa(std::vector<NodeId> members);
  // Read quorum of one, write quorum of all: the paper's headline OQS.
  static std::unique_ptr<ThresholdQuorum> read_one(
      std::vector<NodeId> members);

 private:
  std::size_t read_size_;
  std::size_t write_size_;
};

class GridQuorum final : public QuorumSystem {
 public:
  // members.size() must equal rows * cols; member k (in sorted order) sits
  // at (row k / cols, col k % cols).
  GridQuorum(std::vector<NodeId> members, std::size_t rows, std::size_t cols);

  [[nodiscard]] Pick pick(Kind kind, Rng& rng,
                          std::optional<NodeId> prefer) const override;
  [[nodiscard]] bool is_quorum(Kind kind,
                               const Positions& acked) const override;
  [[nodiscard]] std::size_t quorum_size(Kind kind) const override {
    return kind == Kind::kRead ? cols_ : rows_ + cols_ - 1;
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

 private:
  [[nodiscard]] NodeId at(std::size_t r, std::size_t c) const {
    return members_[r * cols_ + c];
  }
  std::size_t rows_;
  std::size_t cols_;
};

// Verify by exhaustive enumeration (members <= ~20) that every read quorum
// intersects every write quorum and every pair of write quorums intersects.
// Returns false and fills `counterexample` on violation.
struct IntersectionReport {
  bool read_write_ok = true;
  bool write_write_ok = true;
  std::vector<NodeId> counterexample_a;
  std::vector<NodeId> counterexample_b;
};
[[nodiscard]] IntersectionReport check_intersection(const QuorumSystem& qs);

// Exact probability that at least one quorum of `kind` is fully up, when
// each member is independently up with probability (1 - p_down).  Exhaustive
// over subsets; members <= 25.
[[nodiscard]] double exact_availability(const QuorumSystem& qs, Kind kind,
                                        double p_down);

}  // namespace dq::quorum
