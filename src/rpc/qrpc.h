// QRPC: quorum-based remote procedure call (paper, section 2).
//
//   replies = QRPC(system, READ/WRITE, request)
//
// "sends request to a collection of nodes in the specified quorum system
//  ... blocks until a set of replies constituting the specified quorum have
//  been gathered."
//
// Because actors in the simulator are event-driven, QRPC here is a
// continuation-based state machine rather than a blocking call.  It
// implements the paper's prototype policy: include the local node when it is
// a member, fill the quorum with randomly selected members, and retransmit
// to a freshly selected random quorum on an exponentially increasing
// interval.
//
// Two generalizations required by DQVL (section 3.2):
//   * per-node request builders -- "this variation sends different requests
//     to different nodes";
//   * an arbitrary completion predicate -- "processes replies until
//     condition C becomes true" -- re-evaluated on every reply and on
//     `poke()` (lease expiry can complete an IQS write with no message).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/flat_index.h"
#include "common/ids.h"
#include "msg/wire.h"
#include "quorum/quorum.h"
#include "sim/world.h"

namespace dq::rpc {

// Retransmission schedule: the first retransmission after kInitialTimeout,
// each later wait kBackoff times the one before, capped at kMaxTimeout.
inline constexpr sim::Duration kInitialTimeout = sim::milliseconds(400);
inline constexpr double kBackoff = 2.0;
inline constexpr sim::Duration kMaxTimeout = sim::seconds(8);

struct QrpcOptions {
  // Give up after this long; on_complete(false) fires.  The availability
  // experiments use finite deadlines to turn partitions into rejections.
  sim::Duration deadline = sim::kTimeInfinity;
};

// Identifies an in-flight call, for cancellation: (generation << 32) | slot.
// Never 0, so callers can use 0 for "no call".
using CallId = std::uint64_t;

class QrpcEngine {
 public:
  // Build a request for one target; nullopt means "nothing to send to this
  // node" (e.g. an IQS write that knows node j's cached copy is already
  // invalid).
  using BuildRequest = std::function<std::optional<msg::Payload>(NodeId)>;
  // A reply arrived from `src`.  The callback updates caller state; the
  // engine then re-evaluates `done`.
  using OnReply = std::function<void(NodeId src, const msg::Payload&)>;
  using Done = std::function<bool()>;
  using OnComplete = std::function<void(bool success)>;

  QrpcEngine(sim::World& world, NodeId self)
      : world_(world), self_(self),
        m_calls_(&world.metrics().counter("qrpc.calls")),
        m_rounds_(&world.metrics().counter("qrpc.rounds")),
        m_retries_(&world.metrics().counter("qrpc.retries")),
        m_timeouts_(&world.metrics().counter("qrpc.timeouts")),
        m_inflight_(&world.metrics().gauge("qrpc.inflight")) {}

  ~QrpcEngine() { cancel_all(); }

  QrpcEngine(const QrpcEngine&) = delete;
  QrpcEngine& operator=(const QrpcEngine&) = delete;

  // Classic QRPC: complete when replies from a `kind` quorum of `system`
  // have been gathered.  `on_reply` sees each (first) reply.
  CallId call(const quorum::QuorumSystem& system, quorum::Kind kind,
              BuildRequest build, OnReply on_reply, OnComplete on_complete,
              QrpcOptions opts = {});

  // DQVL variation: complete when `done()` holds.  `done` is evaluated
  // immediately (the call may complete without sending anything), after
  // every reply, and on poke().
  CallId call_until(const quorum::QuorumSystem& system, quorum::Kind kind,
                    BuildRequest build, OnReply on_reply, Done done,
                    OnComplete on_complete, QrpcOptions opts = {});

  // Route an incoming envelope to the matching call.  Returns true if the
  // envelope was a reply to a live call (consumed), false otherwise.
  bool on_reply(const sim::Envelope& env);

  // External state affecting some call's `done` changed (e.g. a volume
  // lease expired).  Re-evaluates the predicate of the identified call.
  void poke(CallId id);

  void cancel(CallId id);
  void cancel_all();

  [[nodiscard]] std::size_t inflight() const { return live_; }

 private:
  struct Call {
    RequestId rpc_id;
    const quorum::QuorumSystem* system = nullptr;
    quorum::Kind kind{};
    BuildRequest build;
    OnReply reply_cb;
    Done done;  // empty for call(): complete once a `kind` quorum replied
    OnComplete complete_cb;
    sim::Duration cur_timeout = 0;
    sim::Time deadline_at = sim::kTimeInfinity;
    quorum::Positions responded;  // members that have replied
    sim::TimerToken retry_timer;
    std::uint32_t gen = 1;  // bumped when the slot is freed
    bool live = false;
  };

  // The live call `id` names, or null: finished, cancelled, or a stale id
  // whose slot now holds a newer call.
  Call* find(CallId id);
  Call& at(std::uint32_t slot) {
    return chunks_[slot / kChunkCalls][slot % kChunkCalls];
  }
  [[nodiscard]] static CallId id_of(const Call& c, std::uint32_t slot) {
    return (static_cast<CallId>(c.gen) << 32) | slot;
  }
  [[nodiscard]] static bool satisfied(const Call& c) {
    return c.done ? c.done() : c.system->is_quorum(c.kind, c.responded);
  }
  void transmit_round(CallId id);
  void arm_retry(CallId id);
  void on_retry_timer(CallId id);
  void finish(CallId id, bool success);
  void check_done(CallId id);
  // Drop the call in `slot` (it must be live) and free the slot.
  void release(std::uint32_t slot);

  sim::World& world_;
  NodeId self_;
  // Calls live in a slab of fixed-size chunks that never move, so a Call
  // stays put while a callback starts new calls.  Callbacks may still end
  // calls, so code re-finds a call by id after invoking one.  A reply's rpc
  // id finds its slot through the index.
  static constexpr std::uint32_t kChunkCalls = 64;
  std::vector<std::unique_ptr<Call[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t num_slots_ = 0;
  std::size_t live_ = 0;
  FlatIndex slot_of_rpc_;
  // Engine-shared instruments (one set of names across all nodes; the
  // registry hands every engine the same underlying counters).
  obs::Counter* m_calls_;
  obs::Counter* m_rounds_;
  obs::Counter* m_retries_;
  obs::Counter* m_timeouts_;
  obs::Gauge* m_inflight_;
};

}  // namespace dq::rpc
