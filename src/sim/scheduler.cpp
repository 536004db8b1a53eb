#include "sim/scheduler.h"

#include <utility>
#include <vector>

#include "common/assert.h"

namespace dq::sim {

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t idx = free_head_;
    Slot& s = slot(idx);
    free_head_ = s.next_free;
    s.next_free = kNoSlot;
    return idx;
  }
  if (num_slots_ % kChunkSlots == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  return num_slots_++;
}

void Scheduler::release_slot(std::uint32_t i) {
  Slot& s = slot(i);
  s.next_free = free_head_;
  free_head_ = i;
}

TimerToken Scheduler::arm_slot(std::uint32_t idx, Time when) {
  Slot& s = slot(idx);
  DQ_INVARIANT(static_cast<bool>(s.fn), "scheduled callback must be callable");
  if (when < now_) when = now_;  // no scheduling into the past
  s.armed = true;
  const std::uint64_t seq = next_seq_++;
  heap_push(HeapEntry{when, seq, idx, s.gen});
  ++live_;
  return TimerToken(this, idx, s.gen);
}

std::size_t Scheduler::run_until(Time deadline) {
  std::size_t ran = 0;
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    if (!is_live(top)) {
      heap_pop_root();  // cancelled entry
      continue;
    }
    Slot& s = slot(top.slot);
    if (top.when > deadline) break;
    heap_pop_root();
    DQ_INVARIANT(top.when >= now_, "event queue must be monotone");
    now_ = top.when;
    // One-shot: bump the generation BEFORE running, so a cancel() from
    // inside the callback (or a stale token seeing the recycled slot) is a
    // no-op.  The callback runs in place -- its slot stays off the free
    // list until it returns (a chunk push in a nested schedule_at cannot
    // move it; chunks are stable), then the slot recycles.
    s.armed = false;
    ++s.gen;
    --live_;
    s.fn();
    s.fn.reset();
    release_slot(top.slot);
    ++ran;
    ++executed_;
  }
  if (now_ < deadline && deadline < kTimeInfinity) now_ = deadline;
  return ran;
}

Time Scheduler::next_event_time() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (is_live(top)) return top.when;
    heap_pop_root();  // cancelled entry
  }
  return kTimeInfinity;
}

void Scheduler::advance_to(Time t) {
  DQ_INVARIANT(t >= now_ && next_event_time() >= t,
               "advance_to may not move the clock back or past a pending "
               "event");
  now_ = t;
}

void Scheduler::cancel_event(std::uint32_t slot_idx, std::uint32_t gen) {
  if (slot_idx >= num_slots_) return;
  Slot& s = slot(slot_idx);
  if (!s.armed || s.gen != gen) return;  // already fired, cancelled, or reused
  s.armed = false;
  ++s.gen;  // invalidates the heap entry and every other token copy
  s.fn.reset();
  release_slot(slot_idx);
  --live_;
  if (heap_.size() >= kCompactMinEntries &&
      heap_.size() > kCompactRatio * live_) {
    compact();
  }
}

bool Scheduler::event_pending(std::uint32_t slot_idx,
                              std::uint32_t gen) const {
  return slot_idx < num_slots_ && slot(slot_idx).armed &&
         slot(slot_idx).gen == gen;
}

// Both sift directions move the displaced entry once into its final
// position (hole sifting) instead of swapping at every level.

void Scheduler::heap_push(const HeapEntry& e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Scheduler::heap_pop_root() {
  const HeapEntry hole = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, hole);
}

void Scheduler::sift_down(std::size_t i, HeapEntry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Scheduler::compact() {
  std::erase_if(heap_, [this](const HeapEntry& e) { return !is_live(e); });
  // Floyd: sift every parent down, last parent first.  Keys are unique, so
  // the rebuilt heap pops the live events in exactly the order it would
  // have.
  const std::size_t n = heap_.size();
  if (n < 2) return;
  for (std::size_t i = (n - 2) / 4 + 1; i-- > 0;) sift_down(i, heap_[i]);
}

}  // namespace dq::sim
