#include "obs/staleness.h"

#include <algorithm>

#include "common/assert.h"

namespace dq::obs {

void StalenessTracker::add_write(std::uint64_t object, std::int64_t commit_time,
                                 const LogicalClock& clock) {
  DQ_INVARIANT(!sealed_, "StalenessTracker: add_write after seal");
  ObjectLog& log = objects_[object];
  log.by_commit.push_back({commit_time, clock, LogicalClock{}});
  // Duplicate versions (a replayed write acked twice) keep the earliest
  // commit time -- the conservative choice for the age computation.
  auto [it, inserted] = log.commit_of.emplace(clock, commit_time);
  if (!inserted && commit_time < it->second) it->second = commit_time;
}

void StalenessTracker::seal() {
  for (auto& [object, log] : objects_) {
    std::sort(log.by_commit.begin(), log.by_commit.end(),
              [](const Write& a, const Write& b) {
                if (a.commit != b.commit) return a.commit < b.commit;
                return a.clock < b.clock;
              });
    LogicalClock max_clock;
    for (Write& w : log.by_commit) {
      if (max_clock < w.clock) max_clock = w.clock;
      w.prefix_max = max_clock;
    }
    // Version-ordered index with the supersede time: walking versions from
    // the highest down, a version's lower neighbours became stale at the
    // earliest commit seen so far.
    log.by_version.reserve(log.commit_of.size());
    for (const auto& [clock, commit] : log.commit_of) {
      log.by_version.push_back({clock, commit, commit});
    }
    std::int64_t earliest = 0;
    for (auto it = log.by_version.rbegin(); it != log.by_version.rend(); ++it) {
      if (it == log.by_version.rbegin() || it->commit < earliest) {
        earliest = it->commit;
      }
      it->superseded_at = earliest;
    }
  }
  sealed_ = true;
}

std::int64_t StalenessTracker::read_age(std::uint64_t object,
                                        std::int64_t invoked,
                                        const LogicalClock& clock) const {
  DQ_INVARIANT(sealed_, "StalenessTracker: read_age before seal");
  auto it = objects_.find(object);
  if (it == objects_.end()) return 0;  // never-written object
  const ObjectLog& log = it->second;

  // Latest write committed no later than the read's invocation; its prefix
  // max is the freshest version the read was obliged to see.
  auto after = std::upper_bound(
      log.by_commit.begin(), log.by_commit.end(), invoked,
      [](std::int64_t t, const Write& w) { return t < w.commit; });
  if (after == log.by_commit.begin()) return 0;  // no preceding write
  const LogicalClock obliged = std::prev(after)->prefix_max;
  if (!(clock < obliged)) return 0;  // fresh, newer, or concurrent

  // The read is stale: it had been obliged to see a higher version.  Its
  // age is the time since the earliest commit of ANY higher version --
  // guaranteed <= invoked, because the obliged write is one of them.
  auto sup = std::upper_bound(
      log.by_version.begin(), log.by_version.end(), clock,
      [](const LogicalClock& c, const Version& v) { return c < v.clock; });
  DQ_INVARIANT(sup != log.by_version.end(),
               "StalenessTracker: stale read with no superseding version");
  const std::int64_t age = invoked - sup->superseded_at;
  return age < 0 ? 0 : age;
}

}  // namespace dq::obs
