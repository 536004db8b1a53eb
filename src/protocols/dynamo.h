// Dynamo-style sloppy quorum with hinted handoff and read-repair (after
// DeCandia et al.; staleness motivation from Zhong et al., "Minimizing
// Content Staleness in Dynamo-Style Replicated Storage Systems").
//
// Each object has a preference list: the ring of servers rotated to start
// at `object mod num_servers`; the first N entries are its home replicas.
// The coordinator (the service client embedded in the front-end server the
// app client happened to reach) sends the operation to the first N nodes
// and completes a write at W acks / a read at R replies.  When a home
// replica does not answer, retransmission rounds extend the fan-out one
// node further down the ring ("sloppy" membership); a write accepted by an
// extension node carries `hint_for`, and the holder hands the value off to
// the home replica from a periodic timer once it answers again.  After a
// read completes, the coordinator lingers briefly collecting the remaining
// replies and pushes the freshest observed version to any stale responder
// (read-repair).
//
// Versions are last-writer-wins logical clocks: the coordinator stamps each
// write with a site-local Lamport counter (advanced by every clock it
// observes in replies) and its node id.  Two coordinators writing the same
// key concurrently can order their writes differently from real time --
// exactly the anomaly the regular-semantics checker reports and the
// staleness histogram quantifies; the consistency suite pins this protocol
// as `eventual`, with an expected-violations test under partitions.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "protocols/service_client.h"
#include "rpc/qrpc.h"
#include "store/object_store.h"
#include "store/wal.h"

namespace dq::protocols {

struct DynamoConfig {
  std::vector<NodeId> ring;  // all servers, in ring order
  std::size_t n = 3;         // home replicas per object
  std::size_t r = 1;         // read quorum
  std::size_t w = 2;         // write quorum
  rpc::QrpcOptions rpc;
  std::optional<store::WalParams> wal;
};

class DynamoServer {
 public:
  DynamoServer(sim::World& world, NodeId self,
               std::shared_ptr<const DynamoConfig> cfg);

  bool on_message(const sim::Envelope& env);
  void on_crash();
  void on_recover();

  // Start the periodic hinted-handoff loop (call once after attach).
  void start_handoff();

  [[nodiscard]] const store::ObjectStore& store() const { return store_; }

 private:
  void handle(const sim::Envelope& env);
  void handoff_round();

  sim::World& world_;
  NodeId self_;
  std::shared_ptr<const DynamoConfig> cfg_;
  store::ObjectStore store_;
  std::unique_ptr<store::Wal> wal_;
  // home node id -> (object -> freshest hinted version).  Volatile, like
  // Dynamo's: a crash of the holder loses the hint (the data itself stays
  // in the store / WAL and read-repair re-propagates it).
  std::map<std::uint32_t, std::map<ObjectId, VersionedValue>> hints_;
  obs::Counter* m_reads_;
  obs::Counter* m_writes_;
  obs::Counter* m_hinted_writes_;
  obs::Counter* m_handoffs_;
  obs::Counter* m_repairs_;
  obs::Counter* m_recoveries_ = nullptr;
};

// The coordinator: a ServiceClient running on every front-end server.  Not
// built on QrpcEngine because sloppy membership is dynamic -- each
// retransmission round extends the candidate set one node down the ring,
// and completed reads outlive their quorum to run read-repair.
class DynamoCoordinator final : public ServiceClient {
 public:
  DynamoCoordinator(sim::World& world, NodeId self,
                    std::shared_ptr<const DynamoConfig> cfg);
  ~DynamoCoordinator() override { cancel_all(); }

  void read(ObjectId o, ReadCallback done) override;
  void write(ObjectId o, Value value, WriteCallback done) override;
  bool on_message(const sim::Envelope& env) override;
  void cancel_all() override;

  // The object's preference list: the ring rotated to start at
  // `o mod ring.size()`.
  [[nodiscard]] std::vector<NodeId> preference_list(ObjectId o) const;

 private:
  struct Op {
    bool is_write = false;
    ObjectId object;
    Value value;
    LogicalClock lc;  // write timestamp
    ReadCallback rdone;
    WriteCallback wdone;
    std::set<NodeId> responded;
    VersionedValue best;                        // freshest read reply
    std::map<NodeId, LogicalClock> reply_clocks;  // responder -> version
    std::vector<NodeId> pref;
    std::size_t fanout = 0;  // current prefix of pref being addressed
    sim::Duration cur_timeout = 0;
    sim::Time deadline_at = sim::kTimeInfinity;
    bool completed = false;  // true while lingering for read-repair
    sim::TimerToken retry;
    sim::TimerToken linger;
  };

  std::uint64_t start_op(Op op);
  void transmit(std::uint64_t id);
  void arm_retry(std::uint64_t id);
  void on_retry(std::uint64_t id);
  void complete_read(std::uint64_t id);
  void complete_write(std::uint64_t id);
  void finish_repair(std::uint64_t id);

  sim::World& world_;
  NodeId self_;
  std::shared_ptr<const DynamoConfig> cfg_;
  std::uint64_t lamport_ = 0;  // site clock, advanced by observed versions
  std::map<std::uint64_t, Op> ops_;  // rpc id -> in-flight operation
  obs::Counter* m_reads_;
  obs::Counter* m_writes_;
  obs::Counter* m_retries_;
  obs::Counter* m_repairs_;
};

}  // namespace dq::protocols
