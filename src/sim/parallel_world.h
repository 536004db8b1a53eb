// Conservative parallel discrete-event execution: the one engine every
// World runs on.
//
// The simulation's nodes are split into a fixed set of partitions, each with
// its own scheduler (event queue + clock), rng stream, per-type message
// counts, and trace buffer.  Execution proceeds in synchronization rounds:
// every round the engine computes the globally earliest pending event time T
// and a safe window bound
//
//     window = T + lookahead,
//
// where `lookahead` is the minimum base one-way network delay between any
// two nodes in *different* partitions (jitter is multiplicative >= 1, so the
// base delay is a hard lower bound).  Any event executed in the window can
// only produce cross-partition messages with deliver time >= T + lookahead,
// i.e. at or past the window bound -- so all partitions may run their local
// queues up to `window` concurrently without ever receiving a message "from
// the past".  Cross-partition sends are buffered in per-(src, dst) mailboxes
// (each written by exactly one partition per round, read only after the
// round barrier) and merged into the destination queues in the fixed order
// (deliver_time, global_seq), which makes the total event order a pure
// function of the simulation state: byte-identical output at any
// worker-thread count, including one.
//
// The partition count is derived from the topology alone -- never from the
// thread count -- so `--world-threads 1` and `--world-threads 8` execute the
// exact same partitioned schedule; threads only decide how many partitions
// advance concurrently within a round.  A one-partition plan has no
// cross-partition link, so its lookahead is unbounded and each run call is a
// single round: that is the plain sequential schedule.
//
// Determinism boundaries the engine relies on (enforced by World):
//   * Actors only touch their own node's state from on_message/timers, and a
//     node's events all run on its owning partition's queue.
//   * Shared named metrics instruments use per-partition lanes
//     (obs/metrics.h); snapshots fold lanes in fixed order.
//   * Fault and crash changes touch state every partition reads, so they are
//     round-boundary events: they run from one queue on the coordinating
//     thread, with every partition stopped at exactly the event's time, and
//     no round's window reaches past the next one.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace dq::sim {
class World;
}  // namespace dq::sim

namespace dq::sim::par {

// Static node -> partition assignment plus the lookahead it induces.
struct PartitionPlan {
  std::vector<std::uint32_t> of_node;  // node id -> partition index
  std::size_t count = 0;
  Duration lookahead = 0;              // min cross-partition base delay
};

// Topology-derived partition count used when the caller does not pick one:
// one partition per server up to a fixed cap, so the schedule never depends
// on the machine the simulation runs on.
[[nodiscard]] std::size_t default_partition_count(const Topology& topo);

// Build the plan: servers are split into `partitions` contiguous balanced
// blocks and every client joins its home server's partition (keeping the
// cheap 4 ms client<->home link *inside* a partition, which leaves the 40 ms
// server<->server delay as the lookahead; a one-partition plan crosses no
// link and gets kTimeInfinity).  `partitions` is clamped to [1, num_servers].
[[nodiscard]] PartitionPlan make_partition_plan(const Topology& topo,
                                                std::size_t partitions);

// Resolve a worker-thread request: 0 means one per hardware thread; values
// above the hardware concurrency are clamped with a note on stderr (an
// oversubscribed pool just thrashes).  `flag` names the knob in the note.
[[nodiscard]] std::size_t clamp_threads(std::size_t n, const char* flag);

// A cross-partition message parked until the round barrier.
struct Mail {
  Time deliver_at = 0;
  std::uint64_t seq = 0;  // (src partition << 40) | per-partition send count
  Envelope env;
};

// What the merge sorts in place of the mail itself: one Mail's order and
// where it waits.  The envelope then moves once, from its outbox straight
// into its destination's event pool.
struct MailKey {
  Time deliver_at = 0;
  std::uint64_t seq = 0;
  std::uint32_t src_part = 0;  // whose outbox holds the mail
  std::uint32_t index = 0;     // its position in that outbox
};

// The fixed merge order: (deliver_time, global_seq).  `seq` is globally
// unique, so this is a total order however threads interleave (two mails
// never tie, so the destination node never needs to break one).
[[nodiscard]] inline bool mail_before(const MailKey& a, const MailKey& b) {
  return a.deliver_at != b.deliver_at ? a.deliver_at < b.deliver_at
                                      : a.seq < b.seq;
}

// Everything one partition owns.  During a round, partition state is touched
// only by the single worker executing that partition; between rounds, only
// by the engine's coordinating thread.
struct PartitionState {
  World* world = nullptr;
  std::uint32_t index = 0;
  std::unique_ptr<Scheduler> sched;
  Rng rng{0};
  // Messages this partition sent, by payload variant index (summed and
  // named only when read: World::sent_by_type).
  std::array<std::uint64_t, msg::payload_type_count()> sent_by_type{};
  Tracer tracer;
  std::uint64_t next_rpc_id = 0;  // low bits of this partition's rpc ids
  std::uint64_t send_seq = 0;     // feeds Mail::seq
  std::size_t executed_in_round = 0;
  // outbox[dst]: mail this partition produced for partition dst this round.
  // Single producer (this partition's worker), single consumer (dst's merge
  // step after the barrier).
  std::vector<std::vector<Mail>> outbox;
  // The merge step's sort keys for mail bound here, reused every round (no
  // per-round allocation in the steady state).
  std::vector<MailKey> merge_keys;
};

namespace detail {
// Defined in parallel_world.cpp; exposed here only so current_state()
// inlines to a single thread-local read -- World consults it several times
// per message send on the hot path.
// dqlint:allow(part-mutable-global): per-thread by construction; each worker
// sees only its own partition pointer, so nothing is shared across them.
extern thread_local PartitionState* t_state;
}  // namespace detail

// Ambient "which partition is this thread executing" state, used by World to
// route rng draws, timers, sends, clocks, and traces without threading a
// context argument through every actor.  Null outside a partition step (on
// the coordinating thread: setup, between run calls, and round-boundary
// events).
[[nodiscard]] inline PartitionState* current_state() {
  return detail::t_state;
}
inline void set_current_state(PartitionState* state) {
  detail::t_state = state;
}

// The round loop, the worker pool, and the round-boundary queue.  Owned by
// every World.
class Engine {
 public:
  Engine(World& world, std::size_t threads);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Run every partition up to `deadline` (same contract as
  // Scheduler::run_until: executes events at <= deadline, then advances all
  // partition clocks to the deadline unless it is kTimeInfinity).  Returns
  // the number of events executed, round-boundary events included.
  std::size_t run_until(Time deadline);

  [[nodiscard]] std::size_t threads() const { return threads_; }

  // Round-boundary events (World::schedule_boundary).  Only the coordinating
  // thread touches this queue.
  [[nodiscard]] Scheduler& boundary() { return boundary_; }

 private:
  struct Pool;  // the only thread-primitive holder, in parallel_world.cpp

  void merge_mailboxes_into(PartitionState& dst);
  void merge_tracers();

  World& world_;
  std::size_t threads_ = 1;
  Scheduler boundary_;
  std::unique_ptr<Pool> pool_;
};

}  // namespace dq::sim::par
