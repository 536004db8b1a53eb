// The discrete-event scheduler: a priority queue of timestamped callbacks
// plus the virtual clock.
//
// Determinism: events at equal times fire in insertion order (a strictly
// increasing sequence number breaks ties), so a given seed always produces
// the same execution.
//
// Performance (this is the hottest loop in the repository -- every figure
// replays millions of events through it):
//   * Events live in a chunked slab pool with an intrusive free list.
//     Slab chunks are never reallocated, so event addresses are stable and
//     scheduling from inside a callback is safe; a drained slot is reused
//     without touching the allocator.
//   * Callbacks are SmallFn (sim/small_fn.h): the capture -- including a
//     full in-flight Envelope -- is stored inline in the pool slot, so the
//     steady state allocates nothing per event.
//   * The ready queue is a 4-ary implicit heap of 24-byte (when, seq, slot)
//     entries.  The workload is pop-heavy (every push is eventually popped,
//     and pops dominate comparisons); a wider node trades cheaper, better-
//     cached sift-downs for slightly more comparisons per level.
//   * Cancellation is amortized O(1): the slot's generation is bumped and
//     the slot freed immediately, and the stale heap entry is skipped when
//     popped.  A timer that is almost always cancelled long before it is
//     due (QRPC's retry timer) would leave the heap mostly dead, so once
//     dead entries outnumber live ones a cancel drops them all and rebuilds
//     the heap in O(size) -- paid for by the cancels that made them.  Live
//     entries pop in their unique (when, seq) order either way.
//     TimerToken is a generation-checked pool index, not a shared_ptr.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/small_fn.h"
#include "sim/time.h"

namespace dq::sim {

class Scheduler;

// Handle used to cancel a scheduled event.  A token is a (slot, generation)
// pair into the scheduler's event pool: firing or cancelling an event bumps
// the slot's generation, so a stale token -- cancelled twice, or outliving a
// drained queue whose slot was reused -- is recognized and ignored.  Tokens
// must not outlive the Scheduler itself.
class TimerToken {
 public:
  TimerToken() = default;

  void cancel();
  [[nodiscard]] bool pending() const;

 private:
  friend class Scheduler;
  TimerToken(Scheduler* sched, std::uint32_t slot, std::uint32_t gen)
      : sched_(sched), slot_(slot), gen_(gen) {}

  Scheduler* sched_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Scheduler {
 public:
  // Sized so that the largest hot capture -- World's delivery lambda
  // carrying a complete Envelope (168 bytes) -- stays inline (world.cpp
  // asserts it).
  static constexpr std::size_t kCallbackCapacity = 192;
  using EventFn = SmallFn<kCallbackCapacity>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  // Schedule `fn` to run at absolute time `when` (clamped to now).  The
  // callable is constructed directly into its pool slot -- no intermediate
  // EventFn, no relocation.
  template <typename F>
  TimerToken schedule_at(Time when, F&& fn) {
    const std::uint32_t idx = acquire_slot();
    slot(idx).fn = std::forward<F>(fn);
    return arm_slot(idx, when);
  }

  template <typename F>
  TimerToken schedule_after(Duration delay, F&& fn) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn));
  }

  // Construct a callable of type F directly in its pool slot from `args`.
  // Message delivery uses this to avoid materializing the event (and the
  // Envelope it carries) on the stack before moving it into the pool.
  template <typename F, typename... Args>
  TimerToken schedule_construct_at(Time when, Args&&... args) {
    const std::uint32_t idx = acquire_slot();
    slot(idx).fn.template emplace_as<F>(std::forward<Args>(args)...);
    return arm_slot(idx, when);
  }

  // Run events until the queue drains or `deadline` is reached, whichever is
  // first.  Returns the number of events executed.
  std::size_t run_until(Time deadline);

  // Run until the queue drains completely (use with care: protocols with
  // periodic timers never drain; prefer run_until).
  std::size_t run_all() { return run_until(kTimeInfinity); }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t executed_events() const { return executed_; }

  // Timestamp of the earliest pending event, or kTimeInfinity when the queue
  // is empty.  Prunes cancelled heap entries on the way (which is why
  // it is not const) so the answer reflects only live events.  The parallel
  // world engine polls this per synchronization round to size the next safe
  // execution window.
  [[nodiscard]] Time next_event_time();

  // Move the clock forward to `t` without running anything.  No live event
  // may be pending before `t`.  The world engine stops every partition at
  // exactly a round-boundary event's time with this, so timers the event
  // sets (say, from a recovery hook) start from that instant.
  void advance_to(Time t);

  // Pool slots ever allocated (high-water mark of concurrently pending
  // events, rounded up to a chunk).  Introspection for tests and the
  // throughput bench: a steady pool size means the hot loop is recycling
  // slots instead of growing.
  [[nodiscard]] std::size_t pool_slots() const { return num_slots_; }

  // Heap entries, live and cancelled.  Introspection for tests and the
  // throughput bench: after any cancel it is at most
  // max(kCompactMinEntries, kCompactRatio * live events).
  [[nodiscard]] std::size_t queued_entries() const { return heap_.size(); }

  // A cancel compacts the heap once it holds at least kCompactMinEntries
  // entries and more than kCompactRatio per live event.
  static constexpr std::size_t kCompactMinEntries = 64;
  static constexpr std::size_t kCompactRatio = 2;

 private:
  friend class TimerToken;

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr std::size_t kChunkSlots = 256;

  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;        // bumped on fire and on cancel
    std::uint32_t next_free = kNoSlot;
    bool armed = false;
  };

  struct HeapEntry {
    Time when;
    std::uint64_t seq;   // FIFO tie-break at equal times
    std::uint32_t slot;
    std::uint32_t gen;   // must match the slot to be live
  };

  [[nodiscard]] Slot& slot(std::uint32_t i) {
    return chunks_[i / kChunkSlots][i % kChunkSlots];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t i) const {
    return chunks_[i / kChunkSlots][i % kChunkSlots];
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t i);

  // Clamp `when`, push the heap entry, hand out the token.  The slot's fn
  // must already be in place (schedule_at constructs it there).
  TimerToken arm_slot(std::uint32_t idx, Time when);

  void cancel_event(std::uint32_t slot_idx, std::uint32_t gen);
  [[nodiscard]] bool event_pending(std::uint32_t slot_idx,
                                   std::uint32_t gen) const;

  // Does `e` still name its slot's pending event (not fired, cancelled, or
  // reused)?
  [[nodiscard]] bool is_live(const HeapEntry& e) const {
    const Slot& s = slot(e.slot);
    return s.armed && s.gen == e.gen;
  }

  // 4-ary min-heap over (when, seq).
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  void heap_push(const HeapEntry& e);
  void heap_pop_root();
  // Place `e` at position i or below, moving earlier children up.
  void sift_down(std::size_t i, HeapEntry e);
  // Drop every dead entry and rebuild the heap bottom-up (Floyd).
  void compact();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  std::size_t live_ = 0;  // scheduled and neither fired nor cancelled

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t num_slots_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::vector<HeapEntry> heap_;
};

inline void TimerToken::cancel() {
  if (sched_ != nullptr) sched_->cancel_event(slot_, gen_);
}

inline bool TimerToken::pending() const {
  return sched_ != nullptr && sched_->event_pending(slot_, gen_);
}

}  // namespace dq::sim
