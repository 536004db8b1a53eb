// Tests for the regular-semantics checker itself, on synthetic histories.
// The checker is the oracle for every consistency property test, so it gets
// its own suite: legal histories must pass, illegal ones must be caught.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "workload/history.h"

namespace dq::workload {
namespace {

OpRecord write(std::uint64_t t0, std::uint64_t t1, const char* v,
               LogicalClock lc, bool ok = true, ObjectId o = ObjectId(1)) {
  OpRecord op;
  op.client = ClientId(1);
  op.kind = msg::OpKind::kWrite;
  op.object = o;
  op.invoked = static_cast<sim::Time>(t0);
  op.completed = static_cast<sim::Time>(t1);
  op.ok = ok;
  op.value = v;
  op.clock = lc;
  return op;
}

OpRecord read(std::uint64_t t0, std::uint64_t t1, const char* v,
              LogicalClock lc, bool ok = true, ObjectId o = ObjectId(1)) {
  OpRecord op = write(t0, t1, v, lc, ok, o);
  op.kind = msg::OpKind::kRead;
  return op;
}

TEST(HistoryChecker, EmptyHistoryIsRegular) {
  History h;
  EXPECT_TRUE(h.check_regular().empty());
}

TEST(HistoryChecker, ReadOfInitialValueBeforeAnyWriteIsLegal) {
  History h;
  h.record(read(0, 10, "", LogicalClock::zero()));
  h.record(write(20, 30, "a", {1, 1}));
  EXPECT_TRUE(h.check_regular().empty());
}

TEST(HistoryChecker, ReadOfInitialValueAfterCompletedWriteIsIllegal) {
  History h;
  h.record(write(0, 10, "a", {1, 1}));
  h.record(read(20, 30, "", LogicalClock::zero()));
  EXPECT_EQ(h.check_regular().size(), 1u);
}

TEST(HistoryChecker, ReadOfLatestCompletedWriteIsLegal) {
  History h;
  h.record(write(0, 10, "a", {1, 1}));
  h.record(write(20, 30, "b", {2, 1}));
  h.record(read(40, 50, "b", {2, 1}));
  EXPECT_TRUE(h.check_regular().empty());
}

TEST(HistoryChecker, ReadOfSupersededWriteIsIllegal) {
  History h;
  h.record(write(0, 10, "a", {1, 1}));
  h.record(write(20, 30, "b", {2, 1}));
  h.record(read(40, 50, "a", {1, 1}));  // stale!
  const auto v = h.check_regular();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].read.value, "a");
}

TEST(HistoryChecker, ConcurrentReadMayReturnEitherValue) {
  History h;
  h.record(write(0, 10, "a", {1, 1}));
  h.record(write(20, 60, "b", {2, 1}));  // overlaps both reads below
  h.record(read(30, 40, "a", {1, 1}));   // old value: legal (concurrent)
  h.record(read(30, 40, "b", {2, 1}));   // new value: legal too
  EXPECT_TRUE(h.check_regular().empty());
}

TEST(HistoryChecker, ValueMustMatchClock) {
  History h;
  h.record(write(0, 10, "a", {1, 1}));
  // Read claims the right clock but the wrong value.
  h.record(read(20, 30, "corrupt", {1, 1}));
  EXPECT_EQ(h.check_regular().size(), 1u);
}

TEST(HistoryChecker, IncompleteWriteIsForeverConcurrent) {
  History h;
  h.record(write(0, 0, "a", {1, 1}, /*ok=*/false));  // never completed
  h.record(read(100, 110, "a", {1, 1}));  // may expose it: legal
  h.record(read(200, 210, "", LogicalClock::zero()));  // may miss it: legal
  EXPECT_TRUE(h.check_regular().empty());
}

TEST(HistoryChecker, RejectedReadsAreNotChecked) {
  History h;
  h.record(write(0, 10, "a", {1, 1}));
  h.record(read(20, 30, "", LogicalClock::zero(), /*ok=*/false));
  EXPECT_TRUE(h.check_regular().empty());
}

TEST(HistoryChecker, ObjectsAreIndependent) {
  History h;
  h.record(write(0, 10, "a", {1, 1}, true, ObjectId(1)));
  h.record(read(20, 30, "", LogicalClock::zero(), true, ObjectId(2)));
  EXPECT_TRUE(h.check_regular().empty());
}

TEST(HistoryChecker, MonotonicityAcrossNonOverlappingWrites) {
  // Write b completed strictly after write a; a later read of a is stale
  // even though a has... a LOWER clock is required for this to be illegal.
  History h;
  h.record(write(0, 10, "a", {1, 1}));
  h.record(write(20, 30, "b", {2, 2}));
  h.record(write(40, 50, "c", {3, 1}));
  h.record(read(60, 70, "b", {2, 2}));  // superseded by c
  EXPECT_EQ(h.check_regular().size(), 1u);
}

TEST(HistoryChecker, ReadOverlappingManyWritesMayReturnAnyOfThem) {
  History h;
  h.record(write(0, 100, "a", {1, 1}));
  h.record(write(0, 100, "b", {1, 2}));
  h.record(write(0, 100, "c", {2, 1}));
  h.record(read(50, 60, "b", {1, 2}));
  EXPECT_TRUE(h.check_regular().empty());
}

TEST(HistoryChecker, IncompleteFirstWriteAllowsInitialOrInFlightValue) {
  // Crash-recovery corner case: the very first write to an object never
  // completes (say its ack was lost when the server crashed) and a read of
  // the never-(completely-)written object overlaps it.  BOTH outcomes are
  // legal -- the initial value (the write has not taken effect) and the
  // in-flight value (it has).  This leniency is exactly what lets a WAL
  // drop UNACKED writes at a crash without a violation; acked writes get
  // no such forgiveness.
  {
    History h;
    h.record(write(0, 100, "a", {1, 1}, /*ok=*/false));
    h.record(read(10, 20, "", LogicalClock::zero()));
    EXPECT_TRUE(h.check_regular().empty()) << "initial value must be legal";
  }
  {
    History h;
    h.record(write(0, 100, "a", {1, 1}, /*ok=*/false));
    h.record(read(10, 20, "a", {1, 1}));
    EXPECT_TRUE(h.check_regular().empty()) << "in-flight value must be legal";
  }
  {
    // A value from nowhere is still caught.
    History h;
    h.record(write(0, 100, "a", {1, 1}, /*ok=*/false));
    h.record(read(10, 20, "b", {2, 2}));
    EXPECT_EQ(h.check_regular().size(), 1u);
  }
  {
    // An incomplete write never stops being concurrent (w_end = infinity):
    // a read far in the future may still return either value.
    History h;
    h.record(write(0, 100, "a", {1, 1}, /*ok=*/false));
    h.record(read(50000, 50010, "a", {1, 1}));
    h.record(read(50000, 50010, "", LogicalClock::zero()));
    EXPECT_TRUE(h.check_regular().empty());
  }
}

TEST(HistoryChecker, DuplicateExecutionClockMismatchLegalOnlyWhileOverlapping) {
  // One logical write re-executed across a front-end crash: the history op
  // carries the finally-acked clock (2.1) while a concurrent reader saw the
  // first attempt's pair (same value, clock 1.1).  Legal during the op...
  {
    History h;
    h.record(write(0, 100, "a", {2, 1}));
    h.record(read(10, 20, "a", {1, 1}));
    EXPECT_TRUE(h.check_regular().empty());
  }
  // ...but once the write has completed, a mismatched clock is stale state
  // and stays a violation.
  {
    History h;
    h.record(write(0, 100, "a", {2, 1}));
    h.record(read(200, 210, "a", {1, 1}));
    EXPECT_EQ(h.check_regular().size(), 1u);
  }
}

TEST(HistoryChecker, AppendMergesHistories) {
  History a, b;
  a.record(write(0, 10, "a", {1, 1}));
  b.record(read(20, 30, "a", {1, 1}));
  a.append(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(a.check_regular().empty());
}

// append() shares the other history's records instead of copying them, and
// a later record() on either side leaves the shared ones untouched.
TEST(HistoryChunks, AppendSharesRecordsThatLaterRecordsNeverMove) {
  History site;
  site.reserve(4);
  EXPECT_EQ(site.capacity(), 4u);
  site.record(write(0, 10, "a", {1, 1}));
  site.record(read(20, 30, "a", {1, 1}));
  History merged;
  merged.append(site);
  const OpRecord* first = &*site.ops().begin();
  EXPECT_EQ(&*merged.ops().begin(), first);
  // The shared chunk is frozen: new records go to a chunk of their own.
  EXPECT_EQ(site.capacity(), site.size());
  site.record(write(40, 50, "b", {2, 1}));
  merged.record(read(60, 70, "a", {1, 1}));
  EXPECT_EQ(&*site.ops().begin(), first);
  EXPECT_EQ(&*merged.ops().begin(), first);
  std::vector<std::string> site_values, merged_values;
  for (const OpRecord& op : site.ops()) site_values.push_back(op.value);
  for (const OpRecord& op : merged.ops()) merged_values.push_back(op.value);
  EXPECT_EQ(site_values, (std::vector<std::string>{"a", "a", "b"}));
  EXPECT_EQ(merged_values, (std::vector<std::string>{"a", "a", "a"}));
  EXPECT_EQ(site.size(), 3u);
  EXPECT_EQ(merged.size(), 3u);
  // A second merge lists the site's records in order across its chunks.
  History again;
  again.append(site);
  std::vector<std::string> again_values;
  for (const OpRecord& op : again.ops()) again_values.push_back(op.value);
  EXPECT_EQ(again_values, site_values);
  const History empty;
  EXPECT_TRUE(empty.ops().begin() == empty.ops().end());
}

}  // namespace
}  // namespace dq::workload
