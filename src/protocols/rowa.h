// ROWA: read-one / write-all, synchronous.
//
// Reads are served by any single replica (the client's local one when the
// client is colocated with a replica).  Writes go to every replica and
// complete only when all have acked -- excellent read latency, poor write
// availability.
//
// Write ordering: the writing front end is colocated with a replica, so it
// stamps the write with (local replica clock + 1).  Because a completed
// write reached ALL replicas, any later writer's local replica already holds
// a clock at least as high, which keeps the clock order consistent with
// real-time order for non-concurrent writes (regular semantics).
#pragma once

#include <memory>

#include "protocols/quorum_client.h"
#include "store/object_store.h"

namespace dq::protocols {

class RowaServer {
 public:
  RowaServer(sim::World& world, NodeId self)
      : world_(world), self_(self),
        m_reads_(&world.metrics().counter("proto.rowa.reads")),
        m_writes_(&world.metrics().counter("proto.rowa.writes")) {}

  bool on_message(const sim::Envelope& env);
  [[nodiscard]] const store::ObjectStore& store() const { return store_; }

 private:
  void handle(const sim::Envelope& env);

  sim::World& world_;
  NodeId self_;
  store::ObjectStore store_;
  obs::Counter* m_reads_;
  obs::Counter* m_writes_;
};

struct RowaMessages {
  static msg::Payload read(ObjectId o) { return msg::RowaRead{o}; }
  static const msg::RowaReadReply* read_reply(const msg::Payload& p) {
    return std::get_if<msg::RowaReadReply>(&p);
  }
};

// Reads are the quorum-register read over the read-one system; writes are
// stamped locally (see above) and sent to every replica.
class RowaClient final : public QuorumClient<RowaMessages> {
 public:
  // `local_replica` is the replica colocated with this client's node (null
  // when the client runs off-replica; it then orders writes with a private
  // monotonic counter seeded by its read replies).
  RowaClient(sim::World& world, NodeId self,
             std::shared_ptr<const quorum::QuorumSystem> system,
             const RowaServer* local_replica, rpc::QrpcOptions opts = {})
      : QuorumClient(world, self, system, system, opts),
        local_(local_replica), writer_id_(self.value()) {}

  void read(ObjectId o, ReadCallback done) override;
  void write(ObjectId o, Value value, WriteCallback done) override;

 private:
  const RowaServer* local_;
  ClientId writer_id_;
  LogicalClock seen_;  // highest clock observed in replies
};

}  // namespace dq::protocols
