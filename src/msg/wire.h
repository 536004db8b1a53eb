// Wire messages for every protocol in the repository.
//
// All message bodies are plain structs gathered into one std::variant
// (`Payload`).  Centralizing them buys three things: (1) the simulated
// network can count and size messages per type for the Figure 9 overhead
// experiments, (2) handlers dispatch with std::visit / get_if instead of
// dynamic_cast, and (3) there is exactly one place to audit what crosses the
// (simulated) wire.
//
// Every protocol's client reads and writes with one shared register
// vocabulary (Read, LcRead, Write, StampedWrite and their replies): paper
// section 2 builds each client operation from a QRPC READ or WRITE, whatever
// the quorum system.  Each protocol adds only its own coordination messages.
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
// Register operations, shared by every protocol.  A deployment runs one
// protocol, so a request type names that protocol's servers; replies are
// matched to their call by rpc id.
// ---------------------------------------------------------------------------

// Read an object; the reply carries the server's value and its clock.  A
// DQVL OQS node replies only once condition C holds (processReadRequest).
struct Read {
  ObjectId object;
};
struct ReadReply {
  ObjectId object;
  Value value;
  LogicalClock clock;
};

// Read the server's logical clock: the first phase of a client-stamped
// write.  A DQVL IQS node answers with its global logicalClock
// (processLCReadRequest).
struct LcRead {
  ObjectId object;
};
struct LcReadReply {
  ObjectId object;
  LogicalClock clock;
};

// A write the server stamps: the node that orders writes (the primary, the
// colocated ROWA-Async or Hermes replica) picks the clock and returns it in
// the ack.
struct Write {
  ObjectId object;
  Value value;
};

// A write the client stamped (DQVL, majority, ROWA).  A DQVL IQS node acks
// only once it has ensured an OQS write quorum cannot read the old version
// (invalidation, suppression, or lease expiry; processWriteRequest).
struct StampedWrite {
  ObjectId object;
  Value value;
  LogicalClock clock;
};

// The ack of either write, carrying the write's clock.
struct WriteAck {
  ObjectId object;
  LogicalClock clock;
};

// ---------------------------------------------------------------------------
// Dual-quorum with volume leases (DQVL).  Also serves the basic dual-quorum
// protocol of section 3.1, which is DQVL configured with an infinite lease
// and a single volume.
// ---------------------------------------------------------------------------

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
// Primary/backup (baseline).  Reads and writes are processed by the primary;
// backups receive state either synchronously or asynchronously (configured).
// ---------------------------------------------------------------------------

// Primary -> backup: propagate a write the primary stamped.
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
// ROWA-Async -- local reads and writes, epidemic propagation (baseline,
// Bayou-style).  Push on write plus periodic anti-entropy pull for
// reliability under loss/partitions.
// ---------------------------------------------------------------------------

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

// Coordinator -> replica: a client-stamped write that may stand in for an
// unreachable home replica (acked with WriteAck).
struct DynWrite {
  ObjectId object;
  Value value;
  LogicalClock clock;
  std::uint32_t hint_for = kNoHint;  // home replica index, kNoHint if none
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
    // Register operations
    Read, ReadReply, LcRead, LcReadReply, Write, StampedWrite, WriteAck,
    // DQVL
    DqVolRenew, DqVolRenewReply, DqVolRenewAck, DqVolRenewBatch,
    DqVolRenewBatchReply, DqVolRenewAckBatch, DqObjRenew, DqObjRenewReply,
    DqVolFetch, DqVolFetchReply, DqVolObjRenew, DqVolObjRenewReply, DqInval,
    DqInvalAck,
    // Primary/backup
    PbSync, PbSyncAck,
    // ROWA-Async
    GossipUpdate, AeDigest, AeUpdates,
    // Hermes
    HermesInv, HermesInvAck, HermesVal, HermesValAck,
    // Dynamo
    DynWrite, DynHandoff, DynHandoffAck, DynRepair>;

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
