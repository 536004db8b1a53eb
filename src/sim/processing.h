// Helper for charging the constant per-request processing delay.
//
// The paper's response-time experiment "assume[s] a constant processing
// delay on every edge server for both reads and writes" (section 4.1).  The
// convention in this codebase: the delay is charged once at every server
// that processes a CLIENT-FACING request message (reads, writes, logical-
// clock reads); internal traffic (invalidations, renewals, syncs, gossip)
// is not charged.
#pragma once

#include <utility>

#include "sim/world.h"

namespace dq::sim {

// Run `fn` after the topology's processing delay at `node` (immediately if
// the delay is zero).  The callable goes straight to World::set_timer, so a
// small capture waits in the scheduler's inline event pool.
template <typename F>
void defer_processing(World& world, NodeId node, F&& fn) {
  const Duration d = world.topology().processing_delay();
  if (d <= 0) {
    fn();
    return;
  }
  world.set_timer(node, d, std::forward<F>(fn));
}

}  // namespace dq::sim
