// Randomized failure injection: drives each chosen node through alternating
// up/down periods with exponential durations, yielding a steady-state
// per-node unavailability of mean_down / (mean_up + mean_down).
//
// Used by the Monte-Carlo cross-check of the paper's analytical availability
// model (Figure 8): the model assumes independent per-node unavailability p;
// the injector realizes exactly that.
//
// One renewal process, two fault planes:
//   * FailureInjector -- unreachability (set_up): the node keeps its state
//     and its timers, traffic just stops flowing.  The paper's combined
//     "server crashes and network failures" unit.
//   * CrashInjector -- process death (crash/restart): volatile state is
//     wiped, timers are poisoned, and on restart the node runs its recovery
//     hook (WAL replay, epoch bump; see iqs_server.cpp).
// Every transition is a round-boundary event (World::schedule_boundary), so
// it runs on any partition plan and survives the crash it causes: a node's
// own timers die with it, the boundary queue's do not.
#pragma once

#include <vector>

#include "common/ids.h"
#include "sim/world.h"

namespace dq::sim {

// The shared process: each node is up for Exp(mean_up), then `down` runs,
// then it is down for Exp(mean_down), then `up` runs, and so on.  Each
// transition acts first and then draws the next interval from world.rng().
class RenewalInjector {
 public:
  // Injectors hand `this` to the world's boundary queue.
  RenewalInjector(const RenewalInjector&) = delete;
  RenewalInjector& operator=(const RenewalInjector&) = delete;

  // Begin an independent renewal process on each of `nodes`.
  void start(const std::vector<NodeId>& nodes) {
    for (NodeId n : nodes) {
      timers_.emplace_back();
      schedule(timers_.size() - 1, n, /*going_down=*/true);
    }
  }

  // Cancel every pending transition.  Deployment teardown calls this so an
  // injector never reschedules past the experiment horizon (the tokens are
  // generation-checked, so cancelling an already-fired one is a no-op).
  void stop() {
    for (TimerToken& tok : timers_) tok.cancel();
    timers_.clear();
  }

 protected:
  using Action = void (*)(World&, NodeId);

  RenewalInjector(World& world, Duration mean_up, Duration mean_down,
                  Action down, Action up)
      : world_(world),
        mean_up_(mean_up),
        mean_down_(mean_down),
        down_(down),
        up_(up) {}

 private:
  // One live transition per process: each reschedule replaces the token in
  // the process's slot.
  void schedule(std::size_t slot, NodeId n, bool going_down) {
    const auto wait = static_cast<Duration>(world_.rng().exponential(
        static_cast<double>(going_down ? mean_up_ : mean_down_)));
    timers_[slot] =
        world_.schedule_boundary(wait, [this, slot, n, going_down] {
          (going_down ? down_ : up_)(world_, n);
          schedule(slot, n, !going_down);
        });
  }

  World& world_;
  Duration mean_up_;
  Duration mean_down_;
  Action down_;
  Action up_;
  std::vector<TimerToken> timers_;
};

// Unreachability: the node drops off the network and comes back with its
// state and timers intact.
class FailureInjector : public RenewalInjector {
 public:
  struct Params {
    Duration mean_time_to_failure = seconds(99);
    Duration mean_time_to_repair = seconds(1);

    [[nodiscard]] double steady_state_unavailability() const {
      return static_cast<double>(mean_time_to_repair) /
             static_cast<double>(mean_time_to_failure + mean_time_to_repair);
    }

    // Convenience: pick MTTR for a target unavailability p at a given MTTF.
    static Params for_unavailability(double p, Duration mttf) {
      Params out;
      out.mean_time_to_failure = mttf;
      out.mean_time_to_repair =
          static_cast<Duration>(p / (1.0 - p) * static_cast<double>(mttf));
      return out;
    }
  };

  FailureInjector(World& world, Params params)
      : RenewalInjector(
            world, params.mean_time_to_failure, params.mean_time_to_repair,
            [](World& w, NodeId n) { w.set_up(n, false); },
            [](World& w, NodeId n) { w.set_up(n, true); }) {}
};

// Process death: each node alternates between running (mean_time_to_crash)
// and down-after-crash (mean_downtime).  Restart invokes the node's recovery
// hook via World::restart.
class CrashInjector : public RenewalInjector {
 public:
  struct Params {
    Duration mean_time_to_crash = seconds(120);
    Duration mean_downtime = seconds(2);
  };

  CrashInjector(World& world, Params params)
      : RenewalInjector(
            world, params.mean_time_to_crash, params.mean_downtime,
            [](World& w, NodeId n) { w.crash(n); },
            [](World& w, NodeId n) { w.restart(n); }) {}
};

}  // namespace dq::sim
