// Wire messages for every protocol in the repository.
//
// All message bodies are plain structs gathered into one std::variant
// (`Payload`).  Centralizing them buys three things: (1) the simulated
// network can count and size messages per type for the Figure 9 overhead
// experiments, (2) handlers dispatch with std::visit / get_if instead of
// dynamic_cast, and (3) there is exactly one place to audit what crosses the
// (simulated) wire.
//
// Naming follows the paper's pseudo-code (Figures 4 and 5) where a message
// corresponds to a pseudo-code operation.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "common/version.h"
#include "sim/time.h"

namespace dq::msg {

using Epoch = std::uint64_t;

// ---------------------------------------------------------------------------
// Application client <-> front-end (service client embedded in an edge
// server).  Used by the protocols that exploit edge locality (DQVL, ROWA,
// ROWA-Async); majority and primary/backup clients talk to replicas directly.
// ---------------------------------------------------------------------------

enum class OpKind : std::uint8_t { kRead, kWrite };

struct AppRequest {
  OpKind op{};
  ObjectId object;
  Value value;  // empty for reads
  // Ack floor: every request from this sender with a lower rpc id is
  // settled -- the sender has its reply or has given up, and will never
  // send that request again -- so the front end may forget its reply.
  RequestId settled_below;
};

struct AppReply {
  bool ok = true;
  ObjectId object;
  Value value;
  LogicalClock clock;
};

// ---------------------------------------------------------------------------
// Dual-quorum with volume leases (DQVL).  Also serves the basic dual-quorum
// protocol of section 3.1, which is DQVL configured with an infinite lease
// and a single volume.
// ---------------------------------------------------------------------------

// Service client -> IQS node: read the node's global logical clock
// (processLCReadRequest).  First phase of a client write.
struct DqLcRead {
  ObjectId object;
};
struct DqLcReadReply {
  ObjectId object;
  LogicalClock clock;  // the node's global logicalClock
};

// Service client -> IQS node: the write proper (processWriteRequest).  The
// ack is sent only once the node has ensured an OQS write quorum cannot read
// the old version (invalidation, suppression, or lease expiry).
struct DqWrite {
  ObjectId object;
  Value value;
  LogicalClock clock;
};
// dqlint:allow(flow-unhandled-message): ack consumed generically by the QRPC
// quorum counter; no receiver inspects the body.
struct DqWriteAck {
  ObjectId object;
  LogicalClock clock;
};

// Service client -> OQS node: read an object (processReadRequest).  The OQS
// node replies only once condition C holds (valid volume + object lease from
// a full IQS read quorum).
struct DqRead {
  ObjectId object;
};
struct DqReadReply {
  ObjectId object;
  Value value;
  LogicalClock clock;
};

// One delayed (or direct) invalidation: "object o was overwritten at logical
// clock lc; your cached copy is stale".
struct Invalidation {
  ObjectId object;
  LogicalClock clock;

  friend bool operator==(const Invalidation&, const Invalidation&) = default;
};

// OQS node -> IQS node: renew the lease on a volume (processVLRenewal).
// `requestor_time` is echoed back so the requestor can apply the
// conservative drift bound from its own send timestamp.
struct DqVolRenew {
  VolumeId volume;
  sim::Time requestor_time = 0;
};
struct DqVolRenewReply {
  VolumeId volume;
  std::vector<Invalidation> delayed;  // delayed_{v,j}, applied before use
  sim::Duration lease_length = 0;     // L
  Epoch epoch = 0;                    // epoch_{v,j}
  sim::Time requestor_time = 0;       // echoed t_{v,0}
};

// OQS node -> IQS node: ack a volume renewal after applying the delayed
// invalidations it carried (processVLRenewalAck).  Lets the IQS node trim
// delayed_{v,j} up to `applied_up_to`.
struct DqVolRenewAck {
  VolumeId volume;
  LogicalClock applied_up_to;
};

// OQS node -> IQS node: renew many volume leases in one message.  The
// batched form amortizes proactive renewal traffic across volumes (the same
// argument that amortizes one volume lease across objects); the reply
// carries one DqVolRenewReply per requested volume, and the ack confirms
// application of every delayed invalidation batch at once.
struct DqVolRenewBatch {
  std::vector<DqVolRenew> renewals;
};
struct DqVolRenewBatchReply {
  std::vector<DqVolRenewReply> replies;
};
struct DqVolRenewAckBatch {
  std::vector<DqVolRenewAck> acks;
};

// OQS node -> IQS node: renew / fetch one object (processObjRenewal).
// `requestor_time` is echoed so the requestor can apply its conservative
// drift bound when the deployment uses finite object leases (paper
// footnote 4); with the default infinite object leases it is unused.
struct DqObjRenew {
  ObjectId object;
  sim::Time requestor_time = 0;
};
struct DqObjRenewReply {
  ObjectId object;
  Value value;
  LogicalClock clock;               // lastWriteLC_o
  Epoch epoch = 0;                  // granting node's epoch_{v,j}
  sim::Duration lease_length = 0;   // object lease (kTimeInfinity = callback)
  sim::Time requestor_time = 0;     // echoed
};

// OQS node -> IQS node: bulk revalidation ("prefetch") of an entire
// volume -- a volume lease plus object renewals for EVERY object of the
// volume stored at the replying node, in one exchange.  Used to warm a
// cold or freshly restarted OQS node without paying one miss per object
// (AFS-style volume validation; an engineering extension).
struct DqVolFetch {
  VolumeId volume;
  sim::Time requestor_time = 0;
};
struct DqVolFetchReply {
  DqVolRenewReply vol;
  std::vector<DqObjRenewReply> objects;
};

// Combined volume renewal + object read, pseudo-code case (a) of the read
// QRPC variation ("if the volume from i has expired and the object from i is
// invalid, send a combined volume renewal and object read").
struct DqVolObjRenew {
  VolumeId volume;
  ObjectId object;
  sim::Time requestor_time = 0;
};
struct DqVolObjRenewReply {
  DqVolRenewReply vol;
  DqObjRenewReply obj;
};

// IQS node -> OQS node: invalidate a cached object (processInval) and its
// ack (processInvalAck).
struct DqInval {
  ObjectId object;
  LogicalClock clock;
};
struct DqInvalAck {
  ObjectId object;
  LogicalClock clock;
};

// ---------------------------------------------------------------------------
// Majority-quorum register (baseline).
// ---------------------------------------------------------------------------

struct MajRead {
  ObjectId object;
};
struct MajReadReply {
  ObjectId object;
  Value value;
  LogicalClock clock;
};
struct MajLcRead {
  ObjectId object;
};
struct MajLcReadReply {
  ObjectId object;
  LogicalClock clock;
};
struct MajWrite {
  ObjectId object;
  Value value;
  LogicalClock clock;
};
// dqlint:allow(flow-unhandled-message): ack consumed generically by the QRPC
// quorum counter; no receiver inspects the body.
struct MajWriteAck {
  ObjectId object;
  LogicalClock clock;
};

// ---------------------------------------------------------------------------
// Primary/backup (baseline).  Reads and writes are processed by the primary;
// backups receive state either synchronously or asynchronously (configured).
// ---------------------------------------------------------------------------

struct PbRead {
  ObjectId object;
};
struct PbReadReply {
  ObjectId object;
  Value value;
  LogicalClock clock;
};
struct PbWrite {
  ObjectId object;
  Value value;
};
struct PbWriteAck {
  ObjectId object;
  LogicalClock clock;
};
struct PbSync {
  ObjectId object;
  Value value;
  LogicalClock clock;
};
struct PbSyncAck {
  ObjectId object;
  LogicalClock clock;
};

// ---------------------------------------------------------------------------
// ROWA -- read one, write all, synchronous (baseline).
// ---------------------------------------------------------------------------

struct RowaRead {
  ObjectId object;
};
struct RowaReadReply {
  ObjectId object;
  Value value;
  LogicalClock clock;
};
struct RowaWrite {
  ObjectId object;
  Value value;
  LogicalClock clock;
};
// dqlint:allow(flow-unhandled-message): ack consumed generically by the QRPC
// quorum counter; no receiver inspects the body.
struct RowaWriteAck {
  ObjectId object;
  LogicalClock clock;
};

// ---------------------------------------------------------------------------
// ROWA-Async -- local reads and writes, epidemic propagation (baseline,
// Bayou-style).  Push on write plus periodic anti-entropy pull for
// reliability under loss/partitions.
// ---------------------------------------------------------------------------

struct AsyncRead {
  ObjectId object;
};
struct AsyncReadReply {
  ObjectId object;
  Value value;
  LogicalClock clock;
};
struct AsyncWrite {
  ObjectId object;
  Value value;
};
struct AsyncWriteAck {
  ObjectId object;
  LogicalClock clock;
};
// Replica -> replica push of a fresh update.
struct GossipUpdate {
  ObjectId object;
  Value value;
  LogicalClock clock;
};
// Periodic anti-entropy: digest of (object, clock) pairs; the peer responds
// with every update it holds that is newer than the digest entry.
struct AeDigest {
  std::vector<std::pair<ObjectId, LogicalClock>> entries;
};
struct AeUpdates {
  std::vector<GossipUpdate> updates;
};

// ---------------------------------------------------------------------------
// Hermes -- invalidation-based broadcast (Katsarakis-style baseline).  A
// write coordinator INValidates every replica, waits for acks from ALL of
// them, then commits locally and VALidates the others; reads are local and
// served only while the local copy is valid.  Per-key logical timestamps
// order concurrent writes; `epoch` fences replays across recoveries.
// ---------------------------------------------------------------------------

struct HermesWrite {
  ObjectId object;
  Value value;
};
struct HermesWriteAck {
  ObjectId object;
  LogicalClock clock;
};
struct HermesRead {
  ObjectId object;
};
struct HermesReadReply {
  ObjectId object;
  Value value;
  LogicalClock clock;
};
// Coordinator -> replica: "object o is being overwritten at timestamp lc;
// stop serving your copy until the matching VAL arrives".
struct HermesInv {
  ObjectId object;
  Value value;
  LogicalClock clock;
  Epoch epoch = 0;
};
// dqlint:allow(flow-unhandled-message): ack consumed generically by the QRPC
// broadcast counter; no receiver inspects the body.
struct HermesInvAck {
  ObjectId object;
  LogicalClock clock;
};
// Coordinator -> replica: the write at lc committed; local reads may resume.
struct HermesVal {
  ObjectId object;
  LogicalClock clock;
  Epoch epoch = 0;
};
// dqlint:allow(flow-unhandled-message): ack consumed generically by the QRPC
// broadcast counter; no receiver inspects the body.
struct HermesValAck {
  ObjectId object;
  LogicalClock clock;
};

// ---------------------------------------------------------------------------
// Dynamo -- sloppy quorum with hinted handoff and read-repair (baseline).
// The client walks the ring's preference list, accepts the first N healthy
// nodes, and completes a write at W acks / a read at R replies.  A write
// accepted on behalf of an unreachable home node carries `hint_for`; the
// holder hands the value off when the home node answers again.  Read-repair
// pushes the freshest version to stale responders after a read completes.
// ---------------------------------------------------------------------------

// Sentinel for DynWrite::hint_for: the write landed on its home replica.
inline constexpr std::uint32_t kNoHint = 0xffffffff;

struct DynRead {
  ObjectId object;
};
struct DynReadReply {
  ObjectId object;
  Value value;
  LogicalClock clock;
};
struct DynWrite {
  ObjectId object;
  Value value;
  LogicalClock clock;
  std::uint32_t hint_for = kNoHint;  // home replica index, kNoHint if none
};
struct DynWriteAck {
  ObjectId object;
  LogicalClock clock;
};
// Hint holder -> home replica: deliver a write accepted on its behalf.
struct DynHandoff {
  ObjectId object;
  Value value;
  LogicalClock clock;
};
struct DynHandoffAck {
  ObjectId object;
  LogicalClock clock;
};
// Client -> stale replica after a read: read-repair push of the freshest
// version observed among the read replies.
struct DynRepair {
  ObjectId object;
  Value value;
  LogicalClock clock;
};

// ---------------------------------------------------------------------------
// The payload variant and per-type bookkeeping.
// ---------------------------------------------------------------------------

using Payload = std::variant<
    AppRequest, AppReply,
    // DQVL
    DqLcRead, DqLcReadReply, DqWrite, DqWriteAck, DqRead, DqReadReply,
    DqVolRenew, DqVolRenewReply, DqVolRenewAck, DqVolRenewBatch,
    DqVolRenewBatchReply, DqVolRenewAckBatch, DqObjRenew, DqObjRenewReply,
    DqVolFetch, DqVolFetchReply, DqVolObjRenew, DqVolObjRenewReply, DqInval,
    DqInvalAck,
    // Majority
    MajRead, MajReadReply, MajLcRead, MajLcReadReply, MajWrite, MajWriteAck,
    // Primary/backup
    PbRead, PbReadReply, PbWrite, PbWriteAck, PbSync, PbSyncAck,
    // ROWA
    RowaRead, RowaReadReply, RowaWrite, RowaWriteAck,
    // ROWA-Async
    AsyncRead, AsyncReadReply, AsyncWrite, AsyncWriteAck, GossipUpdate,
    AeDigest, AeUpdates,
    // Hermes
    HermesWrite, HermesWriteAck, HermesRead, HermesReadReply, HermesInv,
    HermesInvAck, HermesVal, HermesValAck,
    // Dynamo
    DynRead, DynReadReply, DynWrite, DynWriteAck, DynHandoff, DynHandoffAck,
    DynRepair>;

// Number of alternatives in Payload (for dense per-type accounting arrays).
[[nodiscard]] constexpr std::size_t payload_type_count() {
  return std::variant_size_v<Payload>;
}

// Human-readable name of alternative `index` (a payload's index()), for
// stats and tracing.  Lets hot-path counters key by index and translate to
// the name only at report time.
[[nodiscard]] const char* payload_type_name(std::size_t index);

// Approximate serialized size in bytes: a fixed per-message header plus the
// payload's variable-length fields.  The paper's overhead model weighs all
// messages equally; byte accounting is the finer-grained extension the
// benches report alongside (e.g. a volume-renewal reply carrying a long
// delayed-invalidation list is NOT the same as an ack).
[[nodiscard]] std::size_t approximate_size(const Payload& p);

}  // namespace dq::msg
