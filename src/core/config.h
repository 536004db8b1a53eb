// Configuration shared by every node participating in one dual-quorum
// deployment.
//
// The basic dual-quorum protocol of section 3.1 is DQVL configured with an
// infinite volume lease: leases then never expire, so every write either
// suppresses (cached copy known-invalid) or invalidates through -- exactly
// the basic protocol.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>

#include "quorum/quorum.h"
#include "rpc/qrpc.h"
#include "sim/time.h"
#include "store/object_store.h"
#include "store/wal.h"

namespace dq::core {

struct DqConfig {
  // The two quorum systems.  Shared (not owned per node): every participant
  // must agree on membership.
  std::shared_ptr<const quorum::QuorumSystem> iqs;
  std::shared_ptr<const quorum::QuorumSystem> oqs;

  store::VolumeMap volumes{1};

  // Volume lease length L.  kTimeInfinity selects the basic (lease-free)
  // dual-quorum protocol.
  sim::Duration lease_length = sim::seconds(10);

  // Object lease length (paper footnote 4).  The default, kTimeInfinity,
  // is the paper's callback model; a finite length lets the IQS skip
  // invalidations (and delayed-invalidation queue entries) for nodes whose
  // object leases have lapsed, trading read misses for space and messages.
  sim::Duration object_lease_length = sim::kTimeInfinity;

  // Maximum clock drift rate between any pair of nodes (paper section 2).
  // Lease grants and expirations are padded by this factor on both sides.
  double max_drift = 0.0;

  // Epoch GC: when a per-(volume, OQS node) delayed-invalidation queue
  // exceeds this bound, the IQS node advances the epoch and drops the queue
  // (section 3.2, "bound the size of the list of delayed invalidations").
  std::size_t max_delayed_per_volume = 64;

  // Ablation switches (DESIGN.md section 5).
  bool suppression_enabled = true;       // write-suppress fast path
  bool proactive_volume_renewal = false; // OQS renews leases before expiry
  // With proactive renewal: gather all volumes nearing expiry into one
  // DqVolRenewBatch per IQS member instead of per-volume QRPCs.
  bool batch_volume_renewals = false;

  rpc::QrpcOptions rpc;

  // Durability: when set, IQS servers keep a write-ahead log and implement
  // crash recovery (WAL replay + epoch bump; see docs/PROTOCOL.md "Crash
  // recovery & durability").  When unset -- the default -- servers behave as
  // before this subsystem existed: crashes keep durable-looking state, and
  // no WAL metrics are registered.
  std::optional<store::WalParams> wal;

  [[nodiscard]] bool is_basic() const {
    return lease_length >= sim::kTimeInfinity;
  }

  // The paper's headline configuration: OQS spans all servers with a read
  // quorum of one; IQS is a majority system over `iqs_members`.
  static DqConfig headline(std::vector<NodeId> oqs_members,
                           std::vector<NodeId> iqs_members,
                           sim::Duration lease = sim::seconds(10)) {
    DqConfig c;
    c.oqs = quorum::ThresholdQuorum::read_one(std::move(oqs_members));
    c.iqs = quorum::ThresholdQuorum::majority(std::move(iqs_members));
    c.lease_length = lease;
    return c;
  }
};

}  // namespace dq::core
