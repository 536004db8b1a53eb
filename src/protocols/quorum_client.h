// The quorum-register service client (paper sections 2 and 3.1).
//
// Every QRPC-based protocol here reads the same way: QRPC to a read quorum,
// keep the reply with the highest logical clock.  Writes come in two shapes,
// told apart by who stamps the write's clock:
//
//   * ServerStampedClient: one call to the server that orders writes (the
//     primary, or the colocated ROWA-Async or Hermes replica); the clock
//     comes back in its ack.
//   * ClientStampedClient: the client stamps.  An LC-read takes the highest
//     clock from a read quorum of the write system, the client advances it,
//     and the write goes to a write quorum (DQVL's IQS, majority).
//
// `M` names one protocol's messages as static functions:
//
//   read(o) -> Payload        read_reply(p) -> const XReadReply* or null
//   server-stamped:  write(o, v) -> Payload, write_ack(p) -> const XAck*
//   client-stamped:  lc_read(o), lc_read_reply(p), write(o, v, lc)
//
// Each reply accessor spells out its std::get_if<msg::...>, so dqlint's
// message-flow rules see the dispatch of every reply type.
//
// The client is a component embedded in a host actor (a front-end edge
// server, or a workload client in direct-access experiments); the host
// forwards envelopes to on_message.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "protocols/service_client.h"
#include "quorum/quorum.h"
#include "rpc/qrpc.h"

namespace dq::protocols {

template <class M>
class QuorumClient : public ServiceClient {
 public:
  void read(ObjectId o, ReadCallback done) override {
    // Shared accumulator: the best (highest-clock) reply seen so far.
    auto best = std::make_shared<VersionedValue>();
    engine_.call(
        *reads_, quorum::Kind::kRead,
        [o](NodeId) -> std::optional<msg::Payload> { return M::read(o); },
        [best](NodeId, const msg::Payload& p) {
          if (const auto* r = M::read_reply(p)) {
            if (r->clock >= best->clock) *best = {r->value, r->clock};
          }
        },
        [best, done = std::move(done)](bool ok) { done(ok, *best); }, opts_);
  }

  bool on_message(const sim::Envelope& env) override {
    return engine_.on_reply(env);
  }
  void cancel_all() override { engine_.cancel_all(); }

 protected:
  QuorumClient(sim::World& world, NodeId self,
               std::shared_ptr<const quorum::QuorumSystem> reads,
               std::shared_ptr<const quorum::QuorumSystem> writes,
               rpc::QrpcOptions opts)
      : reads_(std::move(reads)), writes_(std::move(writes)),
        engine_(world, self), opts_(opts) {}

  std::shared_ptr<const quorum::QuorumSystem> reads_;
  std::shared_ptr<const quorum::QuorumSystem> writes_;
  rpc::QrpcEngine engine_;
  rpc::QrpcOptions opts_;
};

template <class M>
class ServerStampedClient final : public QuorumClient<M> {
 public:
  // `server` holds the one node that serves reads and orders writes.
  ServerStampedClient(sim::World& world, NodeId self,
                      std::shared_ptr<const quorum::QuorumSystem> server,
                      rpc::QrpcOptions opts)
      : QuorumClient<M>(world, self, server, server, opts) {}

  void write(ObjectId o, Value value,
             ServiceClient::WriteCallback done) override {
    auto got = std::make_shared<LogicalClock>();
    this->engine_.call(
        *this->writes_, quorum::Kind::kWrite,
        [o, value = std::move(value)](NodeId) -> std::optional<msg::Payload> {
          return M::write(o, value);
        },
        [got](NodeId, const msg::Payload& p) {
          if (const auto* r = M::write_ack(p)) *got = r->clock;
        },
        [got, done = std::move(done)](bool ok) { done(ok, *got); },
        this->opts_);
  }
};

template <class M>
class ClientStampedClient : public QuorumClient<M> {
 public:
  ClientStampedClient(sim::World& world, NodeId self,
                      std::shared_ptr<const quorum::QuorumSystem> reads,
                      std::shared_ptr<const quorum::QuorumSystem> writes,
                      rpc::QrpcOptions opts)
      : QuorumClient<M>(world, self, std::move(reads), std::move(writes),
                        opts),
        writer_id_(self.value()) {}

  void write(ObjectId o, Value value,
             ServiceClient::WriteCallback done) override {
    // Phase 1: the highest completed clock from a read quorum.
    auto max_lc = std::make_shared<LogicalClock>();
    this->engine_.call(
        *this->writes_, quorum::Kind::kRead,
        [o](NodeId) -> std::optional<msg::Payload> { return M::lc_read(o); },
        [max_lc](NodeId, const msg::Payload& p) {
          if (const auto* r = M::lc_read_reply(p)) {
            *max_lc = std::max(*max_lc, r->clock);
          }
        },
        [this, o, value = std::move(value), max_lc,
         done = std::move(done)](bool ok) mutable {
          if (!ok) {
            done(false, LogicalClock{});
            return;
          }
          // Phase 2: the write proper, to a write quorum.  Advance past our
          // own previously issued clock as well as the quorum maximum:
          // pipelined writes from one writer would otherwise observe the
          // same quorum max and mint identical clocks (writer-id
          // tie-breaking only disambiguates *different* writers).
          const LogicalClock lc =
              std::max(*max_lc, issued_).advanced_by(writer_id_);
          issued_ = lc;
          this->engine_.call(
              *this->writes_, quorum::Kind::kWrite,
              [o, lc, value](NodeId) -> std::optional<msg::Payload> {
                return M::write(o, value, lc);
              },
              [](NodeId, const msg::Payload&) {},
              [lc, done = std::move(done)](bool ok2) { done(ok2, lc); },
              this->opts_);
        },
        this->opts_);
  }

 private:
  ClientId writer_id_;
  LogicalClock issued_;  // highest clock this writer has issued
};

}  // namespace dq::protocols
