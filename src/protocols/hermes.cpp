#include "protocols/hermes.h"

#include <algorithm>
#include <utility>

#include "sim/processing.h"

namespace dq::protocols {
namespace {

// How long a key may stay invalid at a replica before the replica replays
// the pending write itself (lost VAL or crashed coordinator).
constexpr sim::Duration kReplayInterval = sim::seconds(3);

}  // namespace

HermesServer::HermesServer(sim::World& world, NodeId self,
                           std::shared_ptr<const HermesConfig> cfg)
    : world_(world), self_(self), cfg_(std::move(cfg)),
      engine_(world_, self_),
      all_(quorum::ThresholdQuorum::rowa(cfg_->replicas)),
      m_reads_(&world_.metrics().counter("proto.hermes.reads")),
      m_blocked_reads_(&world_.metrics().counter("proto.hermes.blocked_reads")),
      m_writes_(&world_.metrics().counter("proto.hermes.writes")),
      m_invs_(&world_.metrics().counter("proto.hermes.invs")),
      m_vals_(&world_.metrics().counter("proto.hermes.vals")),
      m_replays_(&world_.metrics().counter("proto.hermes.replays")) {
  if (cfg_->wal) {
    wal_ = std::make_unique<store::Wal>(world_, self_, *cfg_->wal);
    m_recoveries_ = &world_.metrics().counter("proto.hermes.recoveries");
  }
}

bool HermesServer::on_message(const sim::Envelope& env) {
  // Replies to this node's own INV / VAL rounds.
  if (engine_.on_reply(env)) return true;
  if (std::holds_alternative<msg::HermesWrite>(env.body) ||
      std::holds_alternative<msg::HermesRead>(env.body)) {
    sim::defer_processing(world_, self_, [this, env] { handle(env); });
    return true;
  }
  if (std::holds_alternative<msg::HermesInv>(env.body) ||
      std::holds_alternative<msg::HermesVal>(env.body)) {
    handle(env);
    return true;
  }
  return false;
}

void HermesServer::handle(const sim::Envelope& env) {
  if (const auto* m = std::get_if<msg::HermesWrite>(&env.body)) {
    handle_write(env, *m);
  } else if (const auto* m = std::get_if<msg::HermesRead>(&env.body)) {
    handle_read(env, *m);
  } else if (const auto* m = std::get_if<msg::HermesInv>(&env.body)) {
    apply_inv(env, *m);
  } else if (const auto* m = std::get_if<msg::HermesVal>(&env.body)) {
    apply_val(env, *m);
  }
}

bool HermesServer::is_valid(ObjectId o) const {
  auto it = valid_ts_.find(o);
  const LogicalClock validated =
      it == valid_ts_.end() ? LogicalClock{} : it->second;
  return validated == store_.clock_of(o);
}

void HermesServer::handle_write(const sim::Envelope& env,
                                const msg::HermesWrite& m) {
  // At-most-once per (src, rpc): the client retransmits under the same rpc
  // id and a re-coordination would mint a second timestamp.
  const auto key = std::make_pair(env.src, env.rpc_id);
  if (auto it = done_writes_.find(key); it != done_writes_.end()) {
    world_.reply(self_, env, it->second);
    return;
  }
  if (!inflight_writes_.insert(key).second) return;

  m_writes_->inc();
  const std::uint64_t counter =
      std::max(seq_, store_.clock_of(m.object).counter) + 1;
  seq_ = counter;
  const LogicalClock lc{counter, self_.value()};
  coordinate(m.object, m.value, lc, env);
}

void HermesServer::handle_read(const sim::Envelope& env,
                               const msg::HermesRead& m) {
  if (is_valid(m.object)) {
    m_reads_->inc();
    const VersionedValue vv = store_.get(m.object);
    world_.reply(self_, env,
                 msg::HermesReadReply{m.object, vv.value, vv.clock});
    return;
  }
  // A write to this key is in flight somewhere; queue until the VAL.
  m_blocked_reads_->inc();
  blocked_reads_[m.object].emplace(std::make_pair(env.src, env.rpc_id), env);
  arm_replay(m.object);
}

void HermesServer::coordinate(ObjectId o, Value value, LogicalClock lc,
                              std::optional<sim::Envelope> client) {
  engine_.call(
      *all_, quorum::Kind::kWrite,
      [o, value, lc, epoch = epoch_](NodeId) -> std::optional<msg::Payload> {
        return msg::HermesInv{o, value, lc, epoch};
      },
      [](NodeId, const msg::Payload&) {},
      [this, o, value, lc, client = std::move(client)](bool ok) {
        if (client) {
          const auto key = std::make_pair(client->src, client->rpc_id);
          inflight_writes_.erase(key);
          if (!ok) return;  // client's own deadline reports the rejection
          const msg::HermesWriteAck ack{o, lc};
          done_writes_.emplace(key, ack);
          world_.reply(self_, *client, ack);
        }
        if (!ok) return;
        // Commit point: every replica has applied and invalidated lc.
        // Validate with the retransmitting engine too, so no replica is
        // left invalid by a lost VAL.
        rpc::QrpcOptions val_opts = cfg_->rpc;
        val_opts.deadline = sim::kTimeInfinity;
        engine_.call(
            *all_, quorum::Kind::kWrite,
            [o, lc, epoch = epoch_](NodeId) -> std::optional<msg::Payload> {
              return msg::HermesVal{o, lc, epoch};
            },
            [](NodeId, const msg::Payload&) {}, [](bool) {}, val_opts);
      },
      cfg_->rpc);
}

void HermesServer::apply_inv(const sim::Envelope& env, const msg::HermesInv& m) {
  m_invs_->inc();
  store_.apply(m.object, m.value, m.clock);
  if (is_valid(m.object)) {
    // A VAL for this timestamp already arrived (reordering); the key is
    // immediately servable again.
    if (auto it = replay_timers_.find(m.object); it != replay_timers_.end()) {
      it->second.cancel();
      replay_timers_.erase(it);
    }
    flush_reads(m.object);
  } else {
    arm_replay(m.object);
  }
  if (wal_ != nullptr) {
    const store::Wal::Lsn lsn =
        wal_->append(store::WalRecord::put(m.object, m.value, m.clock));
    wal_->when_durable(lsn, [this, env, mi = m] {
      world_.reply(self_, env, msg::HermesInvAck{mi.object, mi.clock});
    });
    return;
  }
  world_.reply(self_, env, msg::HermesInvAck{m.object, m.clock});
}

void HermesServer::apply_val(const sim::Envelope& env, const msg::HermesVal& m) {
  m_vals_->inc();
  LogicalClock& validated = valid_ts_[m.object];
  validated = std::max(validated, m.clock);
  world_.reply(self_, env, msg::HermesValAck{m.object, m.clock});
  if (is_valid(m.object)) {
    if (auto it = replay_timers_.find(m.object); it != replay_timers_.end()) {
      it->second.cancel();
      replay_timers_.erase(it);
    }
    flush_reads(m.object);
  }
}

void HermesServer::flush_reads(ObjectId o) {
  auto it = blocked_reads_.find(o);
  if (it == blocked_reads_.end()) return;
  const VersionedValue vv = store_.get(o);
  for (const auto& [key, env] : it->second) {
    m_reads_->inc();
    world_.reply(self_, env, msg::HermesReadReply{o, vv.value, vv.clock});
  }
  blocked_reads_.erase(it);
}

void HermesServer::arm_replay(ObjectId o) {
  if (replay_timers_.count(o) != 0) return;
  replay_timers_[o] = world_.set_timer(self_, kReplayInterval, [this, o] {
    replay_timers_.erase(o);
    if (is_valid(o)) {
      flush_reads(o);
      return;
    }
    // The coordinator died or its VALs are lost: re-coordinate the pending
    // write with the SAME timestamp (idempotent -- applies are max-clock and
    // VAL only validates an already-applied timestamp).
    m_replays_->inc();
    const VersionedValue vv = store_.get(o);
    coordinate(o, vv.value, vv.clock, std::nullopt);
    arm_replay(o);
  });
}

void HermesServer::on_crash() {
  engine_.cancel_all();
  blocked_reads_.clear();
  replay_timers_.clear();  // scheduler drops crashed-incarnation timers
  inflight_writes_.clear();
  done_writes_.clear();
  if (wal_ == nullptr) return;  // legacy model: state survives as if durable
  store_.clear();
  valid_ts_.clear();
  seq_ = 0;
  wal_->on_crash();
}

void HermesServer::on_recover() {
  ++epoch_;  // new membership epoch: replayed INV/VAL carry the bump
  if (wal_ == nullptr) return;
  wal_->replay([this](const store::WalRecord& r) {
    if (r.kind == store::WalRecordKind::kPut) {
      store_.apply(r.object, r.value, r.clock);
      seq_ = std::max(seq_, r.clock.counter);
    }
  });
  m_recoveries_->inc();
  // Every recovered key is invalid (valid_ts_ is volatile): schedule replays
  // so the node re-coordinates its state into validity instead of blocking
  // reads forever.
  for (const auto& [o, lc] : store_.digest()) {
    if (lc != LogicalClock{}) arm_replay(o);
  }
}

}  // namespace dq::protocols
