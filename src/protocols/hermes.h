// Hermes-style invalidation-based broadcast replication (after Katsarakis,
// "Invalidation-Based Protocols for Replicated Datastores").
//
// Every replica holds the full object set and serves LOCAL reads while its
// copy is valid.  A write is coordinated by the replica colocated with the
// requesting front end:
//
//   1. The coordinator assigns the write a per-key logical timestamp
//      (counter = max(local seq, stored clock) + 1, writer = node id) and
//      broadcasts INV{o, value, ts} to ALL replicas (itself included).
//   2. Each replica applies the value (max-clock wins), marks the key
//      INVALID, appends to its WAL when one is configured, and acks once the
//      record is durable.  Reads of an invalid key queue at the replica.
//   3. When acks from EVERY replica have arrived, the write commits: the
//      coordinator acks the client and broadcasts VAL{o, ts}.  A replica
//      receiving VAL re-validates the key (if ts matches its stored clock)
//      and flushes queued reads.
//
// Because a committed write has been applied at every replica before any
// read can observe it, and reads only return validated (= globally applied)
// versions, the protocol is linearizable -- the test suite holds it to
// History::check_atomic, not just check_regular.
//
// Liveness under loss and coordinator crashes comes from replays: both INV
// and VAL rounds run over the retransmitting QRPC engine, and any replica
// stuck with an invalid key re-coordinates the pending write itself with
// the SAME timestamp after a replay interval (idempotent: applies are
// max-clock, VAL only validates an already-applied timestamp).  Recovery
// bumps the replica's membership epoch, replays the WAL into the store, and
// re-coordinates every recovered key, so a restarted node rejoins without
// serving stale data.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "protocols/quorum_client.h"
#include "quorum/quorum.h"
#include "rpc/qrpc.h"
#include "store/object_store.h"
#include "store/wal.h"

namespace dq::protocols {

struct HermesConfig {
  std::vector<NodeId> replicas;
  rpc::QrpcOptions rpc;
  std::optional<store::WalParams> wal;
};

class HermesServer {
 public:
  HermesServer(sim::World& world, NodeId self,
               std::shared_ptr<const HermesConfig> cfg);

  bool on_message(const sim::Envelope& env);
  void on_crash();
  void on_recover();

  [[nodiscard]] const store::ObjectStore& store() const { return store_; }
  [[nodiscard]] msg::Epoch epoch() const { return epoch_; }

 private:
  void handle(const sim::Envelope& env);
  void handle_write(const sim::Envelope& env, const msg::HermesWrite& m);
  void handle_read(const sim::Envelope& env, const msg::HermesRead& m);
  void apply_inv(const sim::Envelope& env, const msg::HermesInv& m);
  void apply_val(const sim::Envelope& env, const msg::HermesVal& m);
  // Broadcast INV to all replicas; on completion commit (optional client
  // ack) and broadcast VAL.
  void coordinate(ObjectId o, Value value, LogicalClock lc,
                  std::optional<sim::Envelope> client);
  [[nodiscard]] bool is_valid(ObjectId o) const;
  void flush_reads(ObjectId o);
  void arm_replay(ObjectId o);

  sim::World& world_;
  NodeId self_;
  std::shared_ptr<const HermesConfig> cfg_;
  store::ObjectStore store_;
  std::unique_ptr<store::Wal> wal_;
  rpc::QrpcEngine engine_;
  std::shared_ptr<const quorum::QuorumSystem> all_;  // write quorum = all
  std::uint64_t seq_ = 0;
  msg::Epoch epoch_ = 0;
  // Highest validated timestamp per key; the key is valid iff this equals
  // the stored clock (both default to zero for never-written keys).
  std::map<ObjectId, LogicalClock> valid_ts_;
  // Reads queued while their key is invalid, deduped by (src, rpc id).
  std::map<ObjectId, std::map<std::pair<NodeId, RequestId>, sim::Envelope>>
      blocked_reads_;
  // Per-key replay timer (armed while the key is invalid).
  std::map<ObjectId, sim::TimerToken> replay_timers_;
  // Client-write dedupe (the front end's client retransmits under the same
  // rpc id; re-coordinating would mint a second timestamp).
  std::set<std::pair<NodeId, RequestId>> inflight_writes_;
  std::map<std::pair<NodeId, RequestId>, msg::HermesWriteAck> done_writes_;

  obs::Counter* m_reads_;
  obs::Counter* m_blocked_reads_;
  obs::Counter* m_writes_;
  obs::Counter* m_invs_;
  obs::Counter* m_vals_;
  obs::Counter* m_replays_;
  obs::Counter* m_recoveries_ = nullptr;
};

struct HermesMessages {
  static msg::Payload read(ObjectId o) { return msg::HermesRead{o}; }
  static const msg::HermesReadReply* read_reply(const msg::Payload& p) {
    return std::get_if<msg::HermesReadReply>(&p);
  }
  static msg::Payload write(ObjectId o, const Value& v) {
    return msg::HermesWrite{o, v};
  }
  static const msg::HermesWriteAck* write_ack(const msg::Payload& p) {
    return std::get_if<msg::HermesWriteAck>(&p);
  }
};

// Thin service client: single-RPC read/write against the colocated replica,
// which does all coordination.
using HermesClient = ServerStampedClient<HermesMessages>;

}  // namespace dq::protocols
