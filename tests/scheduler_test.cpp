// Unit tests for the discrete-event scheduler: time monotonicity, FIFO tie
// breaking, cancellation, and deadline semantics -- plus the partitioned
// engine's cross-partition merge order, which extends the FIFO tie-break
// across schedulers.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/parallel_world.h"
#include "sim/scheduler.h"

namespace dq::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, RunsEventsInTimestampOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Scheduler, EqualTimestampsRunInInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, SchedulingInThePastClampsToNow) {
  Scheduler s;
  s.schedule_at(100, [] {});
  s.run_all();
  ASSERT_EQ(s.now(), 100);
  bool ran = false;
  s.schedule_at(50, [&] { ran = true; });  // in the past
  s.run_all();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), 100);  // did not travel back
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler s;
  int count = 0;
  s.schedule_at(10, [&] { ++count; });
  s.schedule_at(20, [&] { ++count; });
  s.schedule_at(30, [&] { ++count; });
  EXPECT_EQ(s.run_until(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), 20);
  EXPECT_EQ(s.run_until(100), 1u);
  EXPECT_EQ(count, 3);
}

TEST(Scheduler, RunUntilAdvancesTimeEvenWithoutEvents) {
  Scheduler s;
  s.run_until(500);
  EXPECT_EQ(s.now(), 500);
}

TEST(Scheduler, CancelledEventsDoNotRun) {
  Scheduler s;
  bool ran = false;
  TimerToken t = s.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(t.pending());
  t.cancel();
  EXPECT_FALSE(t.pending());
  s.run_all();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelAfterFiringIsHarmless) {
  Scheduler s;
  int runs = 0;
  TimerToken t = s.schedule_at(10, [&] { ++runs; });
  s.run_all();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(t.pending());
  t.cancel();
  s.run_all();
  EXPECT_EQ(runs, 1);
}

TEST(Scheduler, EventsMayScheduleMoreEvents) {
  Scheduler s;
  std::vector<Time> fired;
  std::function<void()> chain = [&] {
    fired.push_back(s.now());
    if (fired.size() < 5) s.schedule_after(10, chain);
  };
  s.schedule_at(0, chain);
  s.run_all();
  EXPECT_EQ(fired, (std::vector<Time>{0, 10, 20, 30, 40}));
}

TEST(Scheduler, ExecutedEventCountExcludesCancelled) {
  Scheduler s;
  s.schedule_at(1, [] {});
  TimerToken t = s.schedule_at(2, [] {});
  t.cancel();
  s.schedule_at(3, [] {});
  s.run_all();
  EXPECT_EQ(s.executed_events(), 2u);
}

TEST(Scheduler, NegativeDelayClampsToNow) {
  Scheduler s;
  s.schedule_at(100, [] {});
  s.run_all();
  bool ran = false;
  s.schedule_after(-50, [&] { ran = true; });
  s.run_all();
  EXPECT_TRUE(ran);
}

// --- event-pool edge cases: generation-checked tokens and slot reuse -------

TEST(Scheduler, CancelTwiceIsHarmless) {
  Scheduler s;
  bool ran = false;
  TimerToken t = s.schedule_at(10, [&] { ran = true; });
  t.cancel();
  t.cancel();  // second cancel hits a recycled (or free) slot: must no-op
  EXPECT_FALSE(t.pending());
  s.run_all();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, StaleTokenDoesNotCancelSlotReuser) {
  Scheduler s;
  // Fire an event, keep its (now stale) token...
  TimerToken stale = s.schedule_at(10, [] {});
  s.run_all();
  EXPECT_FALSE(stale.pending());
  // ...then schedule a new event.  The pool reuses the drained slot, so a
  // buggy token would now point at the NEW event.
  bool ran = false;
  s.schedule_at(20, [&] { ran = true; });
  stale.cancel();  // must not cancel the reuser
  EXPECT_FALSE(stale.pending());
  s.run_all();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, TokenOutlivesDrainedQueue) {
  Scheduler s;
  TimerToken t;
  {
    t = s.schedule_at(5, [] {});
  }
  s.run_all();
  EXPECT_TRUE(s.empty());
  // The queue is fully drained; the token must report not-pending and stay
  // inert through cancels even though its slot sits on the free list.
  EXPECT_FALSE(t.pending());
  t.cancel();
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, PoolReuseDoesNotResurrectCancelledEvents) {
  Scheduler s;
  int cancelled_runs = 0;
  int live_runs = 0;
  // Cancel a batch of events, then refill the (recycled) slots with new
  // ones at the same timestamps.  Only the new batch may fire, exactly once.
  std::vector<TimerToken> doomed;
  doomed.reserve(50);
  for (int i = 0; i < 50; ++i) {
    doomed.push_back(s.schedule_at(10, [&] { ++cancelled_runs; }));
  }
  for (TimerToken& t : doomed) t.cancel();
  for (int i = 0; i < 50; ++i) {
    s.schedule_at(10, [&] { ++live_runs; });
  }
  s.run_all();
  EXPECT_EQ(cancelled_runs, 0);
  EXPECT_EQ(live_runs, 50);
  EXPECT_EQ(s.executed_events(), 50u);
}

TEST(Scheduler, EqualTimeFifoSurvivesInterleavedCancels) {
  Scheduler s;
  // Cancellations between same-timestamp insertions must not disturb the
  // insertion order of the survivors (the heap sees stale entries).
  std::vector<int> order;
  std::vector<TimerToken> cancelled;
  for (int i = 0; i < 20; ++i) {
    if (i % 2 == 0) {
      s.schedule_at(5, [&order, i] { order.push_back(i); });
    } else {
      cancelled.push_back(s.schedule_at(5, [] {}));
    }
  }
  for (TimerToken& t : cancelled) t.cancel();
  s.run_all();
  std::vector<int> expect;
  for (int i = 0; i < 20; i += 2) expect.push_back(i);
  EXPECT_EQ(order, expect);
}

TEST(Scheduler, CancelFromInsideOwnCallbackIsHarmless) {
  Scheduler s;
  int runs = 0;
  TimerToken t;
  t = s.schedule_at(10, [&] {
    ++runs;
    t.cancel();  // self-cancel mid-fire: the slot is already retired
  });
  s.run_all();
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, CallbackMaySchedule) {
  Scheduler s;
  // A firing event's slot stays busy while its callback runs, so a callback
  // scheduling a follow-up takes a second slot; a self-rescheduling chain
  // then ping-pongs between those two slots instead of growing the pool.
  std::vector<Time> fired;
  std::function<void()> chain = [&] {
    fired.push_back(s.now());
    if (fired.size() < 50) s.schedule_after(1, chain);
  };
  s.schedule_at(1, chain);
  s.run_all();
  ASSERT_EQ(fired.size(), 50u);
  EXPECT_EQ(fired.front(), 1);
  EXPECT_EQ(fired.back(), 50);
  EXPECT_LE(s.pool_slots(), 2u);  // recycled, not grown
}

TEST(Scheduler, PoolRecyclesSlotsUnderChurn) {
  Scheduler s;
  // A bounded number of in-flight events must bound the pool no matter how
  // many total events run: the hot loop reuses slots instead of growing.
  int remaining = 10000;
  std::function<void()> tick = [&] {
    if (--remaining > 0) s.schedule_after(1, tick);
  };
  for (int i = 0; i < 4; ++i) s.schedule_at(0, tick);
  s.run_all();
  EXPECT_GE(s.executed_events(), 10000u);
  EXPECT_LE(s.pool_slots(), 256u);  // one chunk, not 10000 slots
}

TEST(Scheduler, NextEventTimeTracksEarliestPending) {
  Scheduler s;
  EXPECT_EQ(s.next_event_time(), kTimeInfinity);
  s.schedule_at(30, [] {});
  TimerToken early = s.schedule_at(10, [] {});
  EXPECT_EQ(s.next_event_time(), 10);
  // Cancelling the earliest event must surface the next one, not the stale
  // lazily-deleted heap entry.
  early.cancel();
  EXPECT_EQ(s.next_event_time(), 30);
  s.run_all();
  EXPECT_EQ(s.next_event_time(), kTimeInfinity);
}

TEST(Scheduler, CrossPartitionTiesPopInTimeSeqNodeOrder) {
  // Two partitions emit mail for the same destination partition at the SAME
  // deliver time.  Which worker thread parks its outbox first is scheduling
  // noise; the merge order (deliver_time, global_seq) must not be (seq is
  // globally unique, so the destination node never has to break a tie).
  // Build the same key set in two insertion orders (two thread
  // interleavings), sort each with the engine's merge comparator, run it
  // through a scheduler, and demand the identical pop order.
  auto key = [](Time at, std::uint32_t src_part, std::uint64_t n,
                std::uint32_t index) {
    return par::MailKey{at, (static_cast<std::uint64_t>(src_part) << 40) | n,
                        src_part, index};
  };
  const std::vector<par::MailKey> from_p0 = {key(50, 0, 1, 0),
                                             key(50, 0, 2, 1)};
  const std::vector<par::MailKey> from_p1 = {key(50, 1, 1, 0),
                                             key(40, 1, 2, 1)};

  auto pop_order = [&](bool p0_first) {
    std::vector<par::MailKey> batch;
    const auto& a = p0_first ? from_p0 : from_p1;
    const auto& b = p0_first ? from_p1 : from_p0;
    batch.insert(batch.end(), a.begin(), a.end());
    batch.insert(batch.end(), b.begin(), b.end());
    std::sort(batch.begin(), batch.end(), par::mail_before);
    Scheduler s;
    std::vector<std::uint64_t> popped;
    for (const par::MailKey& m : batch) {
      s.schedule_at(m.deliver_at, [&popped, seq = m.seq] {
        popped.push_back(seq);
      });
    }
    s.run_all();
    return popped;
  };

  const auto order_a = pop_order(true);
  const auto order_b = pop_order(false);
  EXPECT_EQ(order_a, order_b);
  // Time first (the 40 ms mail), then seq: partition 0's mail (high bits 0)
  // ahead of partition 1's at the shared 50 ms timestamp.
  const std::vector<std::uint64_t> expected = {
      (1ULL << 40) | 2, 1, 2, (1ULL << 40) | 1};
  EXPECT_EQ(order_a, expected);
}

TEST(Scheduler, NextEventTimeDoesNotPerturbExecution) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(s.next_event_time(), 5);  // peeking must not disturb FIFO ties
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// --- cancelled entries do not pile up in the heap --------------------------

// The heap holds at most this many entries right after a cancel.
std::size_t heap_bound(std::size_t live) {
  return std::max(Scheduler::kCompactMinEntries,
                  Scheduler::kCompactRatio * live);
}

TEST(Scheduler, RandomOpsFireInTimeSeqOrder) {
  // Differential test against a reference queue ordered by (when, seq):
  // random schedules (with ties and far-future timers), cancels, and the
  // same two operations from inside firing callbacks.  Every event must
  // fire exactly when the reference says, however often cancels compact
  // the heap underneath.
  Scheduler s;
  Rng rng(2024);
  std::vector<TimerToken> tokens;  // by event id == scheduling order
  std::set<std::pair<Time, std::uint64_t>> reference;
  std::size_t fired = 0;
  std::size_t compactions_seen = 0;

  std::function<void(std::uint64_t)> on_fire;
  auto schedule = [&](Time when) {
    const std::uint64_t id = tokens.size();
    reference.emplace(std::max(when, s.now()), id);
    tokens.push_back(s.schedule_at(when, [&on_fire, id] { on_fire(id); }));
  };
  auto schedule_random = [&] {
    // Mostly near (ties are common), sometimes a far-future "retry".
    const bool far = rng.below(4) == 0;
    const auto offset = static_cast<Time>(far ? 1000000 + rng.below(1000)
                                              : rng.below(20));
    schedule(s.now() + offset);
  };
  auto cancel_random = [&] {
    if (reference.empty()) return;
    const auto it = std::next(
        reference.begin(),
        static_cast<std::ptrdiff_t>(rng.below(reference.size())));
    const std::size_t before = s.queued_entries();
    tokens[it->second].cancel();
    EXPECT_FALSE(tokens[it->second].pending());
    reference.erase(it);
    if (s.queued_entries() < before) ++compactions_seen;
    EXPECT_LE(s.queued_entries(), heap_bound(reference.size()));
  };
  on_fire = [&](std::uint64_t id) {
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(reference.begin()->second, id) << "fired out of order";
    EXPECT_EQ(reference.begin()->first, s.now());
    reference.erase(reference.begin());
    ++fired;
    switch (rng.below(4)) {
      case 0:
        cancel_random();
        break;
      case 1:
        schedule_random();
        break;
      case 2:
        cancel_random();
        schedule_random();
        break;
      default:
        break;
    }
  };

  for (int round = 0; round < 400; ++round) {
    for (int i = 0; i < 30; ++i) {
      if (rng.below(3) == 0) {
        cancel_random();
      } else {
        schedule_random();
      }
    }
    s.run_until(s.now() + static_cast<Time>(rng.below(30)));
    const Time next = reference.empty() ? kTimeInfinity
                                        : reference.begin()->first;
    EXPECT_EQ(s.next_event_time(), next);
  }
  s.run_all();
  EXPECT_TRUE(reference.empty());
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.executed_events(), fired);
  EXPECT_GT(fired, 1000u);
  EXPECT_GT(compactions_seen, 0u) << "the test never compacted the heap";
}

TEST(Scheduler, CancelledRetryTimersDoNotPileUp) {
  // QRPC's pattern: every event arms a far-future retry timer and cancels
  // the one its predecessor armed, so almost every timer is cancelled long
  // before it is due.  Lazy deletion alone would keep every one of them in
  // the heap until its due time; the heap must instead stay within
  // max(kCompactMinEntries, kCompactRatio * live) after every cancel.
  constexpr std::size_t kChains = 40;
  Scheduler s;
  std::vector<TimerToken> retry(kChains);
  std::vector<TimerToken> step(kChains);
  int remaining = 20000;
  std::size_t worst = 0;
  auto live = [&] {
    std::size_t n = 0;
    for (std::size_t c = 0; c < kChains; ++c) {
      n += static_cast<std::size_t>(retry[c].pending()) +
           static_cast<std::size_t>(step[c].pending());
    }
    return n;
  };
  std::function<void(std::size_t)> tick = [&](std::size_t c) {
    retry[c].cancel();
    EXPECT_LE(s.queued_entries(), heap_bound(live()));
    worst = std::max(worst, s.queued_entries());
    retry[c] = s.schedule_after(seconds(8), [] {});
    if (--remaining > 0) {
      step[c] = s.schedule_after(1 + static_cast<Duration>(c % 3),
                                 [&tick, c] { tick(c); });
    }
  };
  for (std::size_t c = 0; c < kChains; ++c) {
    step[c] = s.schedule_at(0, [&tick, c] { tick(c); });
  }
  s.run_until(seconds(1));
  EXPECT_LE(remaining, 0);
  EXPECT_LE(worst, heap_bound(2 * kChains));
  // The surviving retry timers still fire, each once.
  const std::size_t before = s.executed_events();
  s.run_all();
  EXPECT_EQ(s.executed_events() - before, kChains);
}

}  // namespace
}  // namespace dq::sim
