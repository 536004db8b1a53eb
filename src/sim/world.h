// World: the container that wires actors, the scheduler, the network, and
// per-node clocks into one deterministic simulation.
//
// Every protocol node and every client is an Actor.  Actors interact with
// the world only through the narrow API here (send / timers / clocks / rng),
// which is what makes failure injection and deterministic replay possible.
//
// Every world runs on the partitioned engine (sim/parallel_world.h): nodes
// are split into partitions, each with its own scheduler/rng/metrics lane,
// executed in conservative lookahead rounds by a worker pool.  Output is a
// pure function of the partition plan -- byte-identical at any thread count.
// The default plan has one partition, which draws from the trial seed's own
// stream and runs each run call as a single round: the plain sequential
// schedule.  A multi-partition plan (Parallelism{partitions > 1}) splits the
// nodes by topology and gives each partition a stream split from the seed,
// so its schedule differs from the one-partition plan's.
//
// Fault and crash changes (set_up, crash, restart, FaultPlane edits) touch
// state every partition reads.  Mid-run they are round-boundary events
// (schedule_boundary): they run on the coordinating thread while every
// partition is stopped at exactly the event's time.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/ids.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "sim/clock.h"
#include "sim/network.h"
#include "sim/parallel_world.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "sim/time.h"

namespace dq::sim {

class World;

// Base class for every protocol participant.
class Actor {
 public:
  virtual ~Actor() = default;

  // A message addressed to this node arrived (the node is up).
  virtual void on_message(const Envelope& env) = 0;

  // The node crashed (process death: volatile state should be dropped) or
  // recovered.  Partition-style unreachability does NOT invoke these; a
  // partitioned node keeps running its timers.
  virtual void on_crash() {}
  virtual void on_recover() {}

  [[nodiscard]] NodeId id() const { return id_; }

 protected:
  [[nodiscard]] World& world() const { return *world_; }

 private:
  friend class World;
  World* world_ = nullptr;
  NodeId id_{};
};

class World {
 public:
  // Intra-trial parallelism knobs.  `partitions` picks the plan (clamped to
  // [1, num_servers]; pass par::default_partition_count(topo) for the
  // standard topology-derived plan).  `threads` sizes the worker pool and
  // never affects results.
  struct Parallelism {
    std::size_t partitions = 1;
    std::size_t threads = 1;
  };

  World(Topology topology, std::uint64_t seed)
      : World(std::move(topology), seed, Parallelism{}) {}
  World(Topology topology, std::uint64_t seed, Parallelism parallel);
  ~World();

  // Non-copyable: actors hold back-pointers.
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // --- setup -------------------------------------------------------------
  // Register the actor living at `node`.  The world does not own actors
  // (tests and harnesses typically keep them in vectors of unique_ptr).
  void attach(NodeId node, Actor& actor);

  // Give `node` a drifting clock (default: perfect clock).
  void set_clock(NodeId node, DriftClock clock);

  // --- actor-facing API ----------------------------------------------------
  [[nodiscard]] Time now() const { return active_state().sched->now(); }
  [[nodiscard]] Time local_now(NodeId node) const {
    return clock_of(node).local_time(now());
  }
  [[nodiscard]] const DriftClock& clock_of(NodeId node) const {
    return clocks_.at(node.value());
  }

  // Send a request message.  Applies reachability, loss, duplication, delay.
  void send(NodeId src, NodeId dst, RequestId rpc_id, msg::Payload body) {
    send_tagged(src, dst, rpc_id, std::move(body), /*is_reply=*/false);
  }
  // Send a reply to a previously received envelope (echoes its rpc id).
  void reply(NodeId src, const Envelope& to, msg::Payload body) {
    send_tagged(src, to.src, to.rpc_id, std::move(body), /*is_reply=*/true);
  }
  void send_tagged(NodeId src, NodeId dst, RequestId rpc_id,
                   msg::Payload body, bool is_reply, Duration defer = 0);
  // Send a request that departs at `depart_at` (>= now).  The open-loop
  // generators draw a whole batch of arrivals at once and hand each one
  // here, so the scheduler sees one timer per batch plus one delivery event
  // per request.  Loss / duplication / delay / reachability are evaluated at
  // call time from the sending partition's stream (the batch itself is a
  // scheduled event, so this stays deterministic); delivery happens at
  // depart_at + delay, which is always at or past the lookahead bound
  // because defer >= 0.
  void send_at(NodeId src, NodeId dst, Time depart_at, RequestId rpc_id,
               msg::Payload body) {
    const Time t = now();
    send_tagged(src, dst, rpc_id, std::move(body), /*is_reply=*/false,
                depart_at > t ? depart_at - t : 0);
  }

  // Schedule `fn` at `node` after `delay` (on the global clock).  The
  // callback is dropped if the node crashed in the meantime (its process
  // restarted); it still fires while the node is merely partitioned.
  //
  // Templated on the callable so the caller's capture lands directly in the
  // scheduler's inline event pool (one std::function per timer used to be a
  // heap allocation on the hot path).
  template <typename F>
  TimerToken set_timer(NodeId node, Duration delay, F fn) {
    const auto idx = node.value();
    const std::uint64_t inc = incarnation_.at(idx);
    return sched_for(idx).schedule_after(
        delay, [this, idx, inc, fn = std::move(fn)]() mutable {
          if (crashed_.at(idx) || incarnation_.at(idx) != inc) return;
          fn();
        });
  }

  // Schedule `fn` to fire when `node`'s LOCAL clock reaches `local_when`.
  template <typename F>
  TimerToken set_timer_local(NodeId node, Time local_when, F fn) {
    const Time global_when = clock_of(node).global_time(local_when);
    const Duration delay = global_when - now();
    return set_timer(node, delay < 0 ? 0 : delay, std::move(fn));
  }

  [[nodiscard]] Rng& rng() { return active_state().rng; }
  [[nodiscard]] RequestId fresh_rpc_id() {
    // Partition-disjoint id spaces: high bits carry the partition, so two
    // partitions can mint ids concurrently and never collide.  Partition 0
    // mints plain sequential values.
    par::PartitionState& st = active_state();
    return RequestId((static_cast<std::uint64_t>(st.index) << 48) |
                     ++st.next_rpc_id);
  }

  // --- tracing ---------------------------------------------------------------
  // Enable/inspect via tracer().  Inside a partition step each partition
  // buffers its own events, and the engine folds them into this tracer in a
  // deterministic (time, partition, emission) order before each
  // round-boundary event and at the end of each run call.  Events emitted on
  // the coordinating thread go straight to this tracer.
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] bool tracing() const { return tracer_.enabled(); }
  // Emit a protocol event at `node` (no-op unless tracing is enabled).
  void trace(NodeId node, std::string category, std::string detail) {
    if (!tracer_.enabled()) return;
    trace_buffer().emit(now(), node, std::move(category), std::move(detail));
  }

  // --- failure injection ---------------------------------------------------
  // Schedule `fn` as a round-boundary event `delay` from now: it runs on the
  // coordinating thread with every partition stopped at exactly that time,
  // and no partition runs past it first.  Fault and crash changes made
  // mid-run go through here (both injectors do); `fn` may change the fault
  // plane, crash or restart nodes, send, and draw from rng() (partition 0's
  // stream).  Schedule only from the coordinating thread.
  template <typename F>
  TimerToken schedule_boundary(Duration delay, F fn) {
    DQ_INVARIANT(par::current_state() == nullptr,
                 "round-boundary events are scheduled from the "
                 "coordinating thread");
    return engine_->boundary().schedule_at(now() + (delay < 0 ? 0 : delay),
                                           std::move(fn));
  }

  // Unreachability (network failure): node keeps running, no traffic in/out.
  void set_up(NodeId node, bool up) { faults_.set_up(node, up); }
  [[nodiscard]] bool is_up(NodeId node) const { return faults_.is_up(node); }

  // Process crash: drops all pending timers at the node and calls
  // Actor::on_crash; restart() calls Actor::on_recover.
  void crash(NodeId node);
  void restart(NodeId node);
  [[nodiscard]] bool is_crashed(NodeId node) const {
    return crashed_.at(node.value());
  }

  [[nodiscard]] FaultPlane& faults() { return faults_; }

  // --- running -------------------------------------------------------------
  std::size_t run_until(Time deadline) { return engine_->run_until(deadline); }
  std::size_t run_for(Duration d) { return run_until(now() + d); }
  std::size_t run_all() { return engine_->run_until(kTimeInfinity); }

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] const Topology& topology() const { return topo_; }
  // Messages handed to the network so far (net.sent: retransmissions and
  // messages later lost count -- they were sent), and net.dropped.  Read
  // between runs.
  [[nodiscard]] std::uint64_t sent_messages() const {
    return m_sent_->value();
  }
  [[nodiscard]] std::uint64_t dropped_messages() const {
    return m_dropped_->value();
  }
  // The same sends by payload type name, summed over the partitions; types
  // never sent are absent.  This is the report's message table (Figure 9).
  [[nodiscard]] std::map<std::string, std::uint64_t> sent_by_type() const;
  // Events executed so far, summed over every partition's scheduler and the
  // round-boundary queue.
  [[nodiscard]] std::size_t executed_events() const;

  [[nodiscard]] const par::PartitionPlan& partition_plan() const {
    return plan_;
  }

  // The world's metrics registry.  Purely passive accounting: recording or
  // snapshotting metrics never schedules events, draws randomness, or sends
  // messages, so it cannot perturb the simulation (see obs/metrics.h).
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

 private:
  friend class par::Engine;

  // The hottest event in the simulator: one in-flight message.  A concrete
  // struct (not a lambda) so Scheduler::schedule_construct_at can build it
  // directly in its pool slot -- the Envelope is moved exactly once, from
  // the send path into the pool.
  struct DeliveryEvent {
    World* world;
    Envelope env;
    void operator()() { world->deliver(env); }
  };

  // Takes the envelope by reference: the caller (the pooled delivery event)
  // owns it, and the hot path should not pay another 168-byte move.
  void deliver(Envelope& env);

  // The partition state backing the calling thread: its own state inside a
  // partition step, partition 0 from the coordinating thread (setup-time and
  // round-boundary rng draws and sends come from partition 0's stream and
  // lane).
  [[nodiscard]] par::PartitionState& active_state() const {
    par::PartitionState* s = par::current_state();
    if (s != nullptr && s->world == this) return *s;
    return *parts_.front();
  }

  // Where a trace emitted now lands: the running partition's buffer inside
  // a step, the world tracer on the coordinating thread.
  [[nodiscard]] Tracer& trace_buffer() {
    par::PartitionState* s = par::current_state();
    return s != nullptr && s->world == this ? s->tracer : tracer_;
  }

  // The scheduler that owns `node`'s events.  Inside a partition step only
  // the running partition's own nodes may be targeted (cross-partition
  // timers would race the owner's queue).
  [[nodiscard]] Scheduler& sched_for(std::uint32_t node_idx);

  // Queue `env` for delivery `delay` from now at its destination's
  // partition (cross-partition mail waits in the outbox for the barrier).
  void route(Envelope&& env, Duration delay);

  Topology topo_;
  Tracer tracer_;
  FaultPlane faults_;
  obs::MetricsRegistry metrics_;
  // Pre-registered network instruments (hot path: no name lookups).
  obs::Counter* m_sent_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_delivered_ = nullptr;
  obs::Counter* m_dropped_ = nullptr;
  std::array<obs::Counter*, 4> m_link_msgs_{};
  std::array<obs::Counter*, 4> m_link_bytes_{};
  std::vector<Actor*> actors_;
  std::vector<DriftClock> clocks_;
  std::vector<bool> crashed_;
  // Incarnation numbers invalidate pre-crash timers cheaply.
  std::vector<std::uint64_t> incarnation_;
  // The engine comes last so its worker pool is torn down before anything
  // it references.
  par::PartitionPlan plan_;
  std::vector<std::unique_ptr<par::PartitionState>> parts_;
  std::unique_ptr<par::Engine> engine_;
};

}  // namespace dq::sim
