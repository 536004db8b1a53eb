// Primary/backup replication (Alsberg & Day).
//
// All reads and writes are processed by the primary; backups receive state
// transfer either synchronously (the primary acks the client only after all
// reachable... strictly: all backups ack) or asynchronously (the primary
// acks immediately and propagates in the background).  The paper's
// response-time figures show primary/backup completing writes in one client
// round trip, i.e. the asynchronous mode, which is the default here; the
// synchronous mode is kept for the ablation benches.  Clients are
// quorum_client.h's ServerStampedClient over the primary alone.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "quorum/quorum.h"
#include "rpc/qrpc.h"
#include "store/object_store.h"
#include "store/wal.h"

namespace dq::protocols {

enum class PbMode : std::uint8_t { kAsyncPropagation, kSyncPropagation };

struct PbConfig {
  NodeId primary;
  std::vector<NodeId> replicas;  // includes the primary
  PbMode mode = PbMode::kAsyncPropagation;
  rpc::QrpcOptions rpc;
  // When set every replica keeps a write-ahead log; the primary gates its
  // client acks on durability of the put AND the dedupe note, and recovery
  // replays both (minimal recovery, keeping the baseline comparison fair).
  std::optional<store::WalParams> wal;
};

class PbServer {
 public:
  PbServer(sim::World& world, NodeId self, std::shared_ptr<const PbConfig> cfg);

  bool on_message(const sim::Envelope& env);
  void on_crash();
  void on_recover();
  [[nodiscard]] bool is_primary() const { return self_ == cfg_->primary; }
  [[nodiscard]] const store::ObjectStore& store() const { return store_; }

 private:
  void handle(const sim::Envelope& env);
  void propagate(ObjectId o, const Value& v, LogicalClock lc,
                 const sim::Envelope& client_env);

  sim::World& world_;
  NodeId self_;
  std::shared_ptr<const PbConfig> cfg_;
  rpc::QrpcEngine engine_;
  store::ObjectStore store_;
  std::unique_ptr<store::Wal> wal_;
  std::uint64_t write_seq_ = 0;
  std::shared_ptr<const quorum::QuorumSystem> backups_;  // write = all backups
  // Write dedupe: retransmitted client writes are re-acked, not re-applied.
  std::map<std::pair<NodeId, RequestId>, LogicalClock> applied_;
  obs::Counter* m_reads_;
  obs::Counter* m_writes_;
  obs::Counter* m_syncs_;
  obs::Counter* m_recoveries_ = nullptr;
};

}  // namespace dq::protocols
