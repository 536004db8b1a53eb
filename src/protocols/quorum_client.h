// The quorum-register service client (paper sections 2 and 3.1).
//
// Every QRPC-based protocol here reads the same way: QRPC a msg::Read to a
// read quorum, keep the msg::ReadReply with the highest logical clock.
// Writes come in two shapes, told apart by who stamps the write's clock:
//
//   * ServerStampedClient: one msg::Write to the server that orders writes
//     (the primary, or the colocated ROWA-Async or Hermes replica); the
//     clock comes back in its msg::WriteAck.
//   * ClientStampedClient: the client stamps.  A msg::LcRead takes the
//     highest clock from a read quorum of the write system, the client
//     advances it, and a msg::StampedWrite goes to a write quorum (DQVL's
//     IQS, majority).
//
// Each reply accessor spells out its std::get_if<msg::...>, so dqlint's
// message-flow rules see the dispatch of every reply type.
//
// The client is a component embedded in a host actor (a front-end edge
// server, or a workload client in direct-access experiments); the host
// forwards envelopes to on_message.
#pragma once

#include <memory>
#include <utility>

#include "protocols/service_client.h"
#include "quorum/quorum.h"
#include "rpc/qrpc.h"

namespace dq::protocols {

class QuorumClient : public ServiceClient {
 public:
  void read(ObjectId o, ReadCallback done) override;
  bool on_message(const sim::Envelope& env) override {
    return engine_.on_reply(env);
  }
  void cancel_all() override { engine_.cancel_all(); }

 protected:
  QuorumClient(sim::World& world, NodeId self,
               std::shared_ptr<const quorum::QuorumSystem> reads,
               std::shared_ptr<const quorum::QuorumSystem> writes,
               rpc::QrpcOptions opts);

  std::shared_ptr<const quorum::QuorumSystem> reads_;
  std::shared_ptr<const quorum::QuorumSystem> writes_;
  rpc::QrpcEngine engine_;
  rpc::QrpcOptions opts_;
};

class ServerStampedClient final : public QuorumClient {
 public:
  // `server` holds the one node that serves reads and orders writes.
  ServerStampedClient(sim::World& world, NodeId self,
                      std::shared_ptr<const quorum::QuorumSystem> server,
                      rpc::QrpcOptions opts)
      : QuorumClient(world, self, server, server, opts) {}

  void write(ObjectId o, Value value, WriteCallback done) override;
};

class ClientStampedClient : public QuorumClient {
 public:
  ClientStampedClient(sim::World& world, NodeId self,
                      std::shared_ptr<const quorum::QuorumSystem> reads,
                      std::shared_ptr<const quorum::QuorumSystem> writes,
                      rpc::QrpcOptions opts)
      : QuorumClient(world, self, std::move(reads), std::move(writes), opts),
        writer_id_(self.value()) {}

  void write(ObjectId o, Value value, WriteCallback done) override;

 private:
  ClientId writer_id_;
  LogicalClock issued_;  // highest clock this writer has issued
};

}  // namespace dq::protocols
