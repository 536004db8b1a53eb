// OQS server: serves client reads from its cache, gated by condition C
// (paper Figure 5 and section 3.2):
//
//   C(o): there exists an IQS read quorum irq such that this node holds,
//         from every member of irq, BOTH a currently valid volume lease on
//         o's volume AND a valid object lease on o (matching epoch, valid
//         flag set).
//
// When C fails, the node runs the paper's QRPC variation against the IQS:
// per target it sends a combined volume+object renewal, a volume renewal, or
// an object renewal depending on which half is missing, and keeps
// retransmitting to fresh quorums until C holds.
//
// All OQS state is soft: a crash clears it and the node simply re-renews.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "common/flat_index.h"
#include "common/ids.h"
#include "common/version.h"
#include "core/config.h"
#include "msg/wire.h"
#include "rpc/qrpc.h"
#include "sim/world.h"

namespace dq::core {

class OqsServer {
 public:
  OqsServer(sim::World& world, NodeId self,
            std::shared_ptr<const DqConfig> config);

  bool on_message(const sim::Envelope& env);
  void on_crash();
  // An OQS node recovers empty-handed on purpose: every table here is soft
  // state that renewals re-derive, so recovery is just accounting (the
  // counter exists only when the deployment runs with a WAL configured).
  void on_recover();

  // Bulk revalidation: fetch the whole volume (lease + every stored object)
  // from an IQS read quorum, so subsequent reads of its objects are hits.
  // `done` fires once a full read quorum has answered.
  void prefetch(VolumeId v, std::function<void(bool ok)> done);

  // --- introspection -------------------------------------------------------
  // Condition C for object o, evaluated on this node's local clock now.
  [[nodiscard]] bool condition_c(ObjectId o) const;
  [[nodiscard]] bool volume_lease_valid(VolumeId v, NodeId i) const;
  [[nodiscard]] bool object_lease_valid(ObjectId o, NodeId i) const;
  [[nodiscard]] VersionedValue cached(ObjectId o) const {
    const ObjRecord* rec = objects_.find(o.value());
    return rec == nullptr ? VersionedValue{} : rec->cached;
  }
  [[nodiscard]] std::size_t pending_reads() const { return pending_.size(); }
  // The object of every pending read, by (volume, object).
  [[nodiscard]] std::vector<ObjectId> pending_objects() const;

 private:
  struct PerIqsObj {
    msg::Epoch epoch = 0;        // epoch_{o,i}
    LogicalClock clock;          // logicalClock_{o,i}
    bool valid = false;          // valid_{o,i}
    // Object-lease expiry (local clock); kTimeInfinity for callbacks.
    sim::Time expires = sim::kTimeInfinity;
  };
  // One object's record: value_o at its clock, and the grant state from
  // each IQS member, by its position in cfg.iqs->members().
  struct ObjRecord {
    VersionedValue cached;
    std::vector<PerIqsObj> grants;
  };
  struct PerIqsVol {
    msg::Epoch epoch = 0;        // epoch_{v,i}
    sim::Time expires = 0;       // expires_{v,i}, local clock
  };
  struct PendingRead {
    NodeId src;
    RequestId rpc_id;
    ObjectId object;
    rpc::CallId call = 0;
    sim::Time started = 0;  // when the miss began (for dqvl.read.miss_ms)
  };
  // A pending read's key: (volume, object, arrival number).  A reply finds
  // the reads it can complete by range scan; arrival breaks ties.
  using PendingKey = std::tuple<VolumeId, ObjectId, std::uint64_t>;
  // What one reply granted, i.e. which pending reads it can complete: reads
  // on an object of `volumes` (the reply opened the volume lease or advanced
  // its epoch) and reads on `objects` (the reply carried an object grant).
  struct Granted {
    std::vector<VolumeId> volumes;
    std::vector<ObjectId> objects;
  };

  // --- handlers -------------------------------------------------------------
  // A client read from `src`, tagged `rpc`, after its processing delay.
  void handle_read(NodeId src, RequestId rpc, ObjectId object);
  void handle_inval(const sim::Envelope& env, const msg::DqInval& m);
  // When `batch_acks` is non-null, per-volume acknowledgements are
  // collected there instead of sent individually.
  void apply_vol_renew_reply(NodeId i, const msg::DqVolRenewReply& r,
                             Granted& granted,
                             std::vector<msg::DqVolRenewAck>* batch_acks =
                                 nullptr);
  void apply_obj_renew_reply(NodeId i, const msg::DqObjRenewReply& r,
                             Granted& granted);
  void apply_invalidation(NodeId i, ObjectId o, LogicalClock lc);

  void start_read_machine(const PendingKey& key);
  void finish_read(const PendingKey& key, bool ok);
  void poke_pending(const Granted& granted);
  void reply_to_read(const PendingRead& pr);

  void maybe_schedule_proactive_renewal(VolumeId v);
  void run_batched_renewal_round();

  [[nodiscard]] sim::Time local_now() const {
    return world_.local_now(self_);
  }
  // o's record, created with one empty grant per IQS member.
  ObjRecord& obj(ObjectId o);
  // The volume-lease table's key for (v, IQS position).
  [[nodiscard]] static std::uint64_t vol_key(VolumeId v, std::size_t iqs_pos) {
    return (std::uint64_t{v.value()} << 32) | iqs_pos;
  }
  // The position of IQS member i (state from anyone else is a bug).
  [[nodiscard]] std::size_t iqs_pos(NodeId i) const;
  [[nodiscard]] sim::Duration conservative_lease(sim::Duration granted) const;
  // Does object grant `st` count at local time `now`, given the epoch of
  // the volume lease held from the same IQS node?
  [[nodiscard]] static bool grant_counts(const PerIqsObj& st,
                                         msg::Epoch vol_epoch, sim::Time now);

  sim::World& world_;
  NodeId self_;
  std::shared_ptr<const DqConfig> cfg_;
  rpc::QrpcEngine engine_;

  // Records are found through lookup-only indexes: objects by id, volume
  // leases by vol_key (volume, IQS position).  The one walk whose order
  // reaches the wire, run_batched_renewal_round's, sorts what it collects.
  FlatTable<ObjRecord> objects_;
  FlatTable<PerIqsVol> vol_leases_;
  std::map<PendingKey, PendingRead> pending_;
  std::uint64_t next_pending_ = 1;
  std::set<VolumeId> proactive_active_;
  // Lazily built "contact every IQS member" system for prefetch.
  std::shared_ptr<const quorum::QuorumSystem> fetch_all_;

  // Instruments (registered once in the constructor; see obs/metrics.h).
  obs::Counter* m_load_;          // oqs.load.n<id>
  obs::Counter* m_hits_;
  obs::Counter* m_misses_;
  obs::Counter* m_invals_;
  obs::Histogram* m_h_miss_;
  obs::Counter* m_recoveries_ = nullptr;  // only registered with cfg.wal set
};

}  // namespace dq::core
