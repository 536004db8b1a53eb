// IQS server: processes client writes and grants volume/object leases to
// OQS nodes (paper Figure 4).
//
// Per-object callback state:
//   lastWriteLC_o   clock of the last write applied here
//   lastReadLC_o    lastWriteLC_o at the time of the last OQS renewal of o
//   lastAckLC_o[j]  highest invalidation clock acked by OQS node j
//
// Per-(volume, OQS node) lease state:
//   expires[v][j]   when v's lease at j expires (in THIS node's local time,
//                   padded by (1 + maxDrift) -- see note below)
//   delayed[v][j]   invalidations j must apply before its next lease on v
//   epoch[v][j]     advanced to garbage-collect delayed[v][j]
//
// Drift-safety note.  The paper records expires = L + currentTime on the
// grantor while the requestor uses t0 + L*(1 - maxDrift).  With *rate* drift
// those two windows are not strictly nested (a fast grantor clock can expire
// the grant before a slow requestor clock does), so we additionally pad the
// grantor's record to L*(1 + maxDrift).  The invariant tests exercise this
// with adversarial clock rates.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/flat_index.h"
#include "common/ids.h"
#include "common/version.h"
#include "core/config.h"
#include "msg/wire.h"
#include "rpc/qrpc.h"
#include "sim/world.h"

namespace dq::core {

class IqsServer {
 public:
  IqsServer(sim::World& world, NodeId self,
            std::shared_ptr<const DqConfig> config);

  // Handle an envelope addressed to this node.  Returns true if consumed.
  bool on_message(const sim::Envelope& env);

  // Crash-restart.  Without a WAL (cfg.wal unset) this is the legacy
  // durable-fiction model: only in-flight ensure-machines are dropped and
  // everything else behaves as if written through.  With a WAL, on_crash
  // wipes ALL volatile state (lease tables, delayed-invalidation queues,
  // callback state, pending machines) and truncates the log's unsynced
  // tail; on_recover replays the log to rebuild store contents and the
  // logical clock, advances every recovered (volume, node) epoch so
  // pre-crash object leases are implicitly invalid, and opens a recovery
  // grace window during which writes must invalidate through (see
  // docs/PROTOCOL.md "Crash recovery & durability").
  void on_crash();
  void on_recover();

  // --- introspection for tests and invariant checkers ---------------------
  [[nodiscard]] LogicalClock last_write_clock(ObjectId o) const;
  [[nodiscard]] LogicalClock last_read_clock(ObjectId o) const;
  [[nodiscard]] LogicalClock last_ack_clock(ObjectId o, NodeId j) const;
  [[nodiscard]] Value value_of(ObjectId o) const;
  [[nodiscard]] msg::Epoch epoch_of(VolumeId v, NodeId j) const;
  [[nodiscard]] sim::Time lease_expiry(VolumeId v, NodeId j) const;
  [[nodiscard]] std::size_t delayed_queue_size(VolumeId v, NodeId j) const;
  // Is the volume lease for j still valid by this node's local clock?
  [[nodiscard]] bool lease_valid(VolumeId v, NodeId j) const;
  // Number of in-flight invalidation machines (writes not yet safe).
  [[nodiscard]] std::size_t pending_ensures() const {
    std::size_t n = 0;
    objects_.for_each([&n](std::uint64_t, const ObjState& os) {
      n += os.ensure != nullptr && os.ensure->call != 0 ? 1 : 0;
    });
    return n;
  }
  // Inside the post-recovery window where node_safe may not trust its
  // (wiped) lease bookkeeping?  Always false without a WAL.
  [[nodiscard]] bool in_recovery_grace() const {
    return wal_ != nullptr && grace_until_ > local_now();
  }
  [[nodiscard]] store::Wal* wal() { return wal_.get(); }

 private:
  struct LeaseState {
    sim::Time expires = 0;            // local time, padded
    msg::Epoch epoch = 0;
    std::map<ObjectId, LogicalClock> delayed;  // max clock per object
    sim::TimerToken expiry_timer;
  };

  struct Waiter {
    NodeId src;
    RequestId rpc_id;
    LogicalClock clock;
  };

  struct Ensure {
    rpc::CallId call = 0;
    LogicalClock target;          // highest write clock being ensured
    LogicalClock call_target;     // target the running call was started for
    LogicalClock ensured;         // highest clock already ensured
    std::vector<Waiter> waiters;
    // Phase accounting for the write-latency breakdown: when the episode's
    // first blocked write arrived, whether invalidations went out, and
    // whether a lease expiry was needed to unblock it.
    sim::Time started = 0;
    bool sent_invals = false;
    bool lease_expiry_involved = false;
  };

  // What this node knows of OQS node j's copy of one object.  A node
  // without an entry has acked nothing (clock 0) and holds no object lease.
  struct Holder {
    LogicalClock acked;  // lastAckLC_o[j]
    // When j's object lease expires (padded local time), if j was ever
    // granted one.  Absent or past => j holds no usable object lease from
    // this node and needs no invalidation.  With infinite object leases
    // (callbacks, the paper's default) a grant never expires.
    sim::Time lease_expires = 0;
    NodeId node;
    bool leased = false;
  };

  // One object's record: its value, its callback state, and the ensure
  // machine of its writes.
  struct ObjState {
    LogicalClock last_write;
    LogicalClock last_read;
    Value value;
    // Sparse, in arrival order: only OQS nodes that acked an invalidation
    // of the object or renewed it here (about 1.3 per object).
    std::vector<Holder> holders;
    // Created by the object's first write; most objects are only read.
    std::unique_ptr<Ensure> ensure;
  };

  // --- message handlers ----------------------------------------------------
  void handle_lc_read(const sim::Envelope& env, const msg::LcRead& m);
  void handle_write(const sim::Envelope& env, const msg::StampedWrite& m);
  // Second half of handle_write, runs once the write's WAL record is
  // durable (immediately when no WAL is configured): suppression fast path,
  // waiter registration, ensure machine.
  void continue_write(const sim::Envelope& env, const msg::StampedWrite& m);
  void handle_inval_ack(const sim::Envelope& env, const msg::DqInvalAck& m);
  void handle_vol_renew(const sim::Envelope& env, const msg::DqVolRenew& m);
  void handle_vol_renew_ack(const sim::Envelope& env,
                            const msg::DqVolRenewAck& m);
  void handle_obj_renew(const sim::Envelope& env, const msg::DqObjRenew& m);
  void handle_vol_obj_renew(const sim::Envelope& env,
                            const msg::DqVolObjRenew& m);
  void handle_vol_fetch(const sim::Envelope& env, const msg::DqVolFetch& m);

  // --- ensure machine (invalidate an OQS write quorum) ---------------------
  // Is OQS node j guaranteed unable to serve a version of os older than lc?
  // May lazily enqueue a delayed invalidation when j's lease is expired.
  bool node_safe(NodeId j, ObjectId o, const ObjState& os, LogicalClock lc);
  bool owq_invalid(ObjectId o, const ObjState& os, LogicalClock lc);
  void start_or_extend_ensure(ObjectId o);
  void finish_ensure(ObjectId o);
  void poke_ensure(ObjectId o);
  void poke_volume(VolumeId v);

  // --- lease helpers --------------------------------------------------------
  LeaseState& lease(VolumeId v, NodeId j);
  [[nodiscard]] const LeaseState* find_lease(VolumeId v, NodeId j) const;
  msg::DqVolRenewReply grant_lease(NodeId j, VolumeId v,
                                   sim::Time requestor_time);
  msg::DqObjRenewReply grant_object(NodeId j, ObjectId o,
                                    sim::Time requestor_time);
  void maybe_gc_epoch(VolumeId v, NodeId j);
  // The only path that moves an epoch counter: the matching kEpoch record
  // is made durable before the in-memory counter advances, so a recovering
  // node can never re-issue a pre-crash epoch.
  void advance_epoch(VolumeId v, NodeId j, LeaseState& ls);
  void end_recovery_grace();

  // o's record, created empty on first use.
  ObjState& obj(ObjectId o) { return objects_[o.value()]; }
  // j's entry in os.holders, created empty on first use.
  static Holder& holder(ObjState& os, NodeId j);
  [[nodiscard]] static const Holder* find_holder(const ObjState& os,
                                                 NodeId j);
  [[nodiscard]] ObjState* find_obj(ObjectId o) {
    return objects_.find(o.value());
  }
  [[nodiscard]] const ObjState* find_obj(ObjectId o) const {
    return objects_.find(o.value());
  }
  [[nodiscard]] sim::Time local_now() const {
    return world_.local_now(self_);
  }
  void reply(const sim::Envelope& to, msg::Payload body);

  sim::World& world_;
  NodeId self_;
  std::shared_ptr<const DqConfig> cfg_;
  rpc::QrpcEngine engine_;

  // Durability (null unless cfg.wal is set).  grace_until_ is the local
  // time until which node_safe must not trust absent lease bookkeeping:
  // two padded lease lengths past recovery, by which point every pre-crash
  // volume lease has expired at its holder.
  std::unique_ptr<store::Wal> wal_;
  sim::Time grace_until_ = 0;
  sim::Time crashed_at_ = 0;  // global time of the last crash

  LogicalClock logical_clock_;  // >= every lastWriteLC on this node
  // Durable logical-clock reservation (WAL mode only): every counter this
  // node has ever exposed -- in an LC-read reply or applied to the store --
  // is < clock_reserved_, and the reservation (a kClockMark record) is
  // durable before the counter escapes.  Recovery restores the clock to the
  // reserved mark, so a crash can never regress the counter below a value a
  // pre-crash mint may have observed.  Without this, an orphaned pre-crash
  // write (applied but never acked) could carry a higher clock than a
  // post-crash retry of the same logical write, and a residual OQS object
  // lease could keep serving the orphan while invalidations with the lower
  // retry clock fail to clear it.  Counters are reserved in blocks so the
  // mark costs one durable record per kClockBlock writes, not per write.
  static constexpr std::uint64_t kClockBlock = 64;
  std::uint64_t clock_reserved_ = 0;
  // The reservation recovered from the WAL at the last restart: every clock
  // the pre-crash incarnation granted lies below it (see node_safe (a')).
  std::uint64_t recovered_mark_ = 0;
  void reserve_clock();
  // Object records are found by id through a lookup-only index.  A walk
  // whose order reaches the wire or the event schedule -- handle_vol_fetch's
  // grants, the pokes of poke_volume and end_recovery_grace -- collects ids
  // and sorts them, so no order depends on the index or on creation order.
  FlatTable<ObjState> objects_;
  // Ordered: on_crash and on_recover walk it, and recovery's epoch records
  // go to the WAL in this order.
  std::map<std::pair<VolumeId, NodeId>, LeaseState> leases_;

  // Instruments (registered once in the constructor; see obs/metrics.h).
  obs::Counter* m_load_;          // iqs.load.n<id>: requests this node handled
  obs::Counter* m_writes_;
  obs::Counter* m_lc_reads_;
  obs::Counter* m_renewals_;
  obs::Counter* m_lease_grants_;
  obs::Counter* m_lease_expiries_;
  obs::Counter* m_epoch_bumps_;
  obs::Counter* m_suppressed_;
  obs::Gauge* m_delayed_depth_;
  obs::Histogram* m_h_suppress_;
  obs::Histogram* m_h_invalidate_;
  obs::Histogram* m_h_lease_wait_;
  // Registered only when a WAL is configured, so WAL-less reports keep
  // their exact byte layout.
  obs::Counter* m_recoveries_ = nullptr;
  obs::Histogram* m_h_recovery_ms_ = nullptr;
};

}  // namespace dq::core
