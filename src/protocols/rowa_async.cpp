#include "protocols/rowa_async.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "sim/processing.h"

namespace dq::protocols {
namespace {

// Period of the anti-entropy digest exchange.
constexpr sim::Duration kAntiEntropyInterval = sim::seconds(1);

}  // namespace

RowaAsyncServer::RowaAsyncServer(sim::World& world, NodeId self,
                                 std::shared_ptr<const RowaAsyncConfig> cfg)
    : world_(world), self_(self), cfg_(std::move(cfg)),
      m_reads_(&world_.metrics().counter("proto.rowa_async.reads")),
      m_writes_(&world_.metrics().counter("proto.rowa_async.writes")),
      m_gossip_(&world_.metrics().counter("proto.rowa_async.gossip")),
      m_ae_rounds_(&world_.metrics().counter("proto.rowa_async.ae_rounds")) {}

void RowaAsyncServer::start_anti_entropy() {
  world_.set_timer(self_, kAntiEntropyInterval, [this] {
    anti_entropy_round();
    start_anti_entropy();
  });
}

void RowaAsyncServer::anti_entropy_round() {
  // Exchange digests with one random peer per round.
  std::vector<NodeId> peers;
  for (NodeId r : cfg_->replicas) {
    if (r != self_) peers.push_back(r);
  }
  if (peers.empty()) return;
  m_ae_rounds_->inc();
  const NodeId peer = peers[world_.rng().below(peers.size())];
  world_.send(self_, peer, RequestId(0), msg::AeDigest{store_.digest()});
}

bool RowaAsyncServer::on_message(const sim::Envelope& env) {
  if (std::holds_alternative<msg::AsyncRead>(env.body) ||
      std::holds_alternative<msg::AsyncWrite>(env.body)) {
    sim::defer_processing(world_, self_, [this, env] { handle(env); });
    return true;
  }
  if (std::holds_alternative<msg::GossipUpdate>(env.body) ||
      std::holds_alternative<msg::AeDigest>(env.body) ||
      std::holds_alternative<msg::AeUpdates>(env.body)) {
    handle(env);
    return true;
  }
  return false;
}

void RowaAsyncServer::handle(const sim::Envelope& env) {
  if (const auto* m = std::get_if<msg::AsyncRead>(&env.body)) {
    m_reads_->inc();
    const VersionedValue vv = store_.get(m->object);
    world_.reply(self_, env,
                 msg::AsyncReadReply{m->object, vv.value, vv.clock});
  } else if (const auto* m = std::get_if<msg::AsyncWrite>(&env.body)) {
    m_writes_->inc();
    // Accept locally, ack, push to peers in the background.
    const std::uint64_t counter =
        std::max(write_seq_, store_.clock_of(m->object).counter) + 1;
    write_seq_ = counter;
    const LogicalClock lc{counter, self_.value()};
    store_.apply(m->object, m->value, lc);
    world_.reply(self_, env, msg::AsyncWriteAck{m->object, lc});
    for (NodeId r : cfg_->replicas) {
      if (r != self_) {
        world_.send(self_, r, RequestId(0),
                    msg::GossipUpdate{m->object, m->value, lc});
      }
    }
  } else if (const auto* m = std::get_if<msg::GossipUpdate>(&env.body)) {
    m_gossip_->inc();
    store_.apply(m->object, m->value, m->clock);
  } else if (const auto* m = std::get_if<msg::AeDigest>(&env.body)) {
    // Send back everything newer than (or absent from) the digest.
    msg::AeUpdates out;
    std::map<ObjectId, LogicalClock> theirs;
    for (const auto& [o, lc] : m->entries) theirs.emplace(o, lc);
    for (const auto& [o, lc] : store_.digest()) {
      auto it = theirs.find(o);
      if (it == theirs.end() || it->second < lc) {
        const VersionedValue vv = store_.get(o);
        out.updates.push_back({o, vv.value, vv.clock});
      }
    }
    if (!out.updates.empty()) {
      world_.send(self_, env.src, RequestId(0), std::move(out));
    }
  } else if (const auto* m = std::get_if<msg::AeUpdates>(&env.body)) {
    for (const auto& u : m->updates) store_.apply(u.object, u.value, u.clock);
  }
}

}  // namespace dq::protocols
