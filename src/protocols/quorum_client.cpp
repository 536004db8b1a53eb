#include "protocols/quorum_client.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace dq::protocols {

QuorumClient::QuorumClient(sim::World& world, NodeId self,
                           std::shared_ptr<const quorum::QuorumSystem> reads,
                           std::shared_ptr<const quorum::QuorumSystem> writes,
                           rpc::QrpcOptions opts)
    : reads_(std::move(reads)), writes_(std::move(writes)),
      engine_(world, self), opts_(opts) {}

void QuorumClient::read(ObjectId o, ReadCallback done) {
  // Shared accumulator: the best (highest-clock) reply seen so far.
  auto best = std::make_shared<VersionedValue>();
  engine_.call(
      *reads_, quorum::Kind::kRead,
      [o](NodeId) -> std::optional<msg::Payload> { return msg::Read{o}; },
      [best](NodeId, const msg::Payload& p) {
        if (const auto* r = std::get_if<msg::ReadReply>(&p)) {
          if (r->clock >= best->clock) *best = {r->value, r->clock};
        }
      },
      [best, done = std::move(done)](bool ok) { done(ok, *best); }, opts_);
}

void ServerStampedClient::write(ObjectId o, Value value, WriteCallback done) {
  auto got = std::make_shared<LogicalClock>();
  engine_.call(
      *writes_, quorum::Kind::kWrite,
      [o, value = std::move(value)](NodeId) -> std::optional<msg::Payload> {
        return msg::Write{o, value};
      },
      [got](NodeId, const msg::Payload& p) {
        if (const auto* r = std::get_if<msg::WriteAck>(&p)) *got = r->clock;
      },
      [got, done = std::move(done)](bool ok) { done(ok, *got); }, opts_);
}

void ClientStampedClient::write(ObjectId o, Value value, WriteCallback done) {
  // Phase 1: the highest completed clock from a read quorum.
  auto max_lc = std::make_shared<LogicalClock>();
  engine_.call(
      *writes_, quorum::Kind::kRead,
      [o](NodeId) -> std::optional<msg::Payload> { return msg::LcRead{o}; },
      [max_lc](NodeId, const msg::Payload& p) {
        if (const auto* r = std::get_if<msg::LcReadReply>(&p)) {
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
        engine_.call(
            *writes_, quorum::Kind::kWrite,
            [o, lc, value](NodeId) -> std::optional<msg::Payload> {
              return msg::StampedWrite{o, value, lc};
            },
            [](NodeId, const msg::Payload&) {},
            [lc, done = std::move(done)](bool ok2) { done(ok2, lc); }, opts_);
      },
      opts_);
}

}  // namespace dq::protocols
