// ROWA-Async: local reads and writes with epidemic propagation
// (Bayou-style; the paper's weak-consistency baseline).
//
// A write is applied and acked by the receiving replica alone, then pushed
// to the other replicas in the background.  A periodic anti-entropy process
// additionally exchanges digests with a random peer so that updates survive
// message loss and partitions.  Reads return whatever the local replica
// holds -- possibly stale, which is exactly the weakness the dual-quorum
// protocol removes (this shows up as expected failures in the
// regular-semantics checker under partitions).
#pragma once

#include <memory>
#include <vector>

#include "protocols/quorum_client.h"
#include "store/object_store.h"

namespace dq::protocols {

struct RowaAsyncConfig {
  std::vector<NodeId> replicas;
  rpc::QrpcOptions rpc;
};

class RowaAsyncServer {
 public:
  RowaAsyncServer(sim::World& world, NodeId self,
                  std::shared_ptr<const RowaAsyncConfig> cfg);

  bool on_message(const sim::Envelope& env);

  // Start the periodic anti-entropy loop (call once after attach).
  void start_anti_entropy();

  [[nodiscard]] const store::ObjectStore& store() const { return store_; }

 private:
  void handle(const sim::Envelope& env);
  void anti_entropy_round();

  sim::World& world_;
  NodeId self_;
  std::shared_ptr<const RowaAsyncConfig> cfg_;
  store::ObjectStore store_;
  std::uint64_t write_seq_ = 0;
  obs::Counter* m_reads_;
  obs::Counter* m_writes_;
  obs::Counter* m_gossip_;
  obs::Counter* m_ae_rounds_;
};

struct RowaAsyncMessages {
  static msg::Payload read(ObjectId o) { return msg::AsyncRead{o}; }
  static const msg::AsyncReadReply* read_reply(const msg::Payload& p) {
    return std::get_if<msg::AsyncReadReply>(&p);
  }
  static msg::Payload write(ObjectId o, const Value& v) {
    return msg::AsyncWrite{o, v};
  }
  static const msg::AsyncWriteAck* write_ack(const msg::Payload& p) {
    return std::get_if<msg::AsyncWriteAck>(&p);
  }
};

// Client: single-RPC read/write against one replica (the colocated one when
// the front end runs on a replica node).
using RowaAsyncClient = ServerStampedClient<RowaAsyncMessages>;

}  // namespace dq::protocols
