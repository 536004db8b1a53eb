// Operation history recording and the regular-semantics checker.
//
// The paper guarantees regular semantics (Lamport): a read not concurrent
// with any write returns the value of the latest write that completed
// before the read began; a read concurrent with writes may also return any
// of the concurrent writes' values.
//
// Multi-writer generalization used here (writes are totally ordered by
// their logical clocks, and clock order is consistent with the real-time
// order of non-overlapping completed writes): a read r may return
//   (a) the completed write with the highest clock among those that
//       completed before r began, or
//   (b) any write whose execution interval overlaps r's, or that started
//       and never completed (its outcome is forever "concurrent").
// A read of a never-written object may return the initial (empty, clock-0)
// value.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/version.h"
#include "msg/wire.h"
#include "sim/time.h"

namespace dq::workload {

struct OpRecord {
  ClientId client;
  msg::OpKind kind{};
  ObjectId object;
  sim::Time invoked = 0;
  sim::Time completed = 0;  // meaningful only when ok
  bool ok = false;          // rejected / timed-out ops have ok == false
  Value value;              // value read or written
  LogicalClock clock;       // clock returned (reads) or assigned (writes)
};

struct Violation {
  OpRecord read;
  std::string reason;
};

class History {
 public:
  void record(OpRecord op) { ops_.push_back(std::move(op)); }
  // Room for n records in all, so recording up to n never relocates.
  void reserve(std::size_t n) { ops_.reserve(n); }
  void append(const History& other) {
    ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
  }

  [[nodiscard]] const std::vector<OpRecord>& ops() const { return ops_; }
  [[nodiscard]] std::size_t size() const { return ops_.size(); }

  // Check every successful read against regular semantics.  Returns the
  // violations found (empty == history is regular).
  [[nodiscard]] std::vector<Violation> check_regular() const;

  // Check atomic (linearizable single-register) semantics.  For a register
  // whose writes carry distinct, totally ordered logical clocks, a history
  // is atomic iff it is regular AND real-time order is respected by clock
  // order:
  //   (1) writes: W1 completed before W2 began  =>  lc(W1) < lc(W2)
  //   (2) no new-old read inversion: R1 completed before R2 began  =>
  //       lc(R1) <= lc(R2)
  //   (3) reads vs writes: W completed before R began => lc(R) >= lc(W)
  //       (subsumed by check_regular's rule (a) but re-verified here).
  // DQVL guarantees only regular semantics; the atomic client variant
  // (DqAtomicServiceClient, protocols/dq_client.h) must pass this stronger
  // check.
  [[nodiscard]] std::vector<Violation> check_atomic() const;

 private:
  std::vector<OpRecord> ops_;
};

}  // namespace dq::workload
