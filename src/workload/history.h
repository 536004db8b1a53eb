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

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/version.h"
#include "msg/wire.h"
#include "sim/time.h"

namespace dq::workload {

// 80 bytes on LP64: `ok` shares the first word with `client` and `kind`.
struct OpRecord {
  ClientId client;
  msg::OpKind kind{};
  bool ok = false;          // rejected / timed-out ops have ok == false
  ObjectId object;
  sim::Time invoked = 0;
  sim::Time completed = 0;  // meaningful only when ok
  Value value;              // value read or written
  LogicalClock clock;       // clock returned (reads) or assigned (writes)
};

struct Violation {
  OpRecord read;
  std::string reason;
};

// A history holds its records once, in chunks it may share with other
// histories: append() shares the other history's chunks and copies no
// record, so Deployment::collect() merges every site's history for free and
// can be called again.  record() never writes into a shared chunk -- it
// starts a new one -- so a shared record never moves or changes and an
// earlier append's result stays as it was.  record() must not run while
// another thread drops a share of the last chunk (use_count() is a relaxed
// load); only a finished trial's collected result crosses threads.
class History {
  using Chunk = std::vector<OpRecord>;

 public:
  // The records in order, for a range-for.
  class Ops {
   public:
    class iterator {
     public:
      const OpRecord& operator*() const { return *op_; }
      const OpRecord* operator->() const { return op_; }
      iterator& operator++() {
        if (++op_ == end_) enter(chunk_ + 1);
        return *this;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.op_ == b.op_;
      }

     private:
      friend class Ops;
      iterator(const std::shared_ptr<Chunk>* chunk,
               const std::shared_ptr<Chunk>* last)
          : last_(last) {
        enter(chunk);
      }
      // Point at the first record of the first non-empty chunk from `c`.
      void enter(const std::shared_ptr<Chunk>* c) {
        for (chunk_ = c; chunk_ != last_; ++chunk_) {
          if (!(*chunk_)->empty()) {
            op_ = (*chunk_)->data();
            end_ = op_ + (*chunk_)->size();
            return;
          }
        }
        op_ = end_ = nullptr;
      }

      const std::shared_ptr<Chunk>* chunk_ = nullptr;
      const std::shared_ptr<Chunk>* last_ = nullptr;
      const OpRecord* op_ = nullptr;
      const OpRecord* end_ = nullptr;
    };

    [[nodiscard]] iterator begin() const { return {first_, last_}; }
    [[nodiscard]] iterator end() const { return {last_, last_}; }

   private:
    friend class History;
    Ops(const std::shared_ptr<Chunk>* first, const std::shared_ptr<Chunk>* last)
        : first_(first), last_(last) {}
    const std::shared_ptr<Chunk>* first_;
    const std::shared_ptr<Chunk>* last_;
  };

  void record(OpRecord op) {
    writable().push_back(std::move(op));
    ++size_;
  }
  // Room for n records in all, so recording up to n never relocates.
  void reserve(std::size_t n) {
    if (n <= size_) return;
    Chunk& c = writable();
    c.reserve(c.size() + (n - size_));
  }
  // Append `other`'s records by sharing its chunks.
  void append(const History& other) {
    for (const auto& c : other.chunks_) {
      if (!c->empty()) chunks_.push_back(c);
    }
    size_ += other.size_;
  }

  [[nodiscard]] Ops ops() const {
    return {chunks_.data(), chunks_.data() + chunks_.size()};
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  // Records the history can hold before record() allocates.
  [[nodiscard]] std::size_t capacity() const {
    if (chunks_.empty() || chunks_.back().use_count() > 1) return size_;
    return size_ + chunks_.back()->capacity() - chunks_.back()->size();
  }

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
  // The last chunk, or a new one when it is shared (or there is none).
  Chunk& writable() {
    if (chunks_.empty() || chunks_.back().use_count() > 1) {
      chunks_.push_back(std::make_shared<Chunk>());
    }
    return *chunks_.back();
  }

  std::vector<std::shared_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace dq::workload
