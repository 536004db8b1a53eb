#include "protocols/primary_backup.h"

#include <algorithm>
#include <utility>

#include "sim/processing.h"

namespace dq::protocols {

PbServer::PbServer(sim::World& world, NodeId self,
                   std::shared_ptr<const PbConfig> cfg)
    : world_(world), self_(self), cfg_(std::move(cfg)),
      engine_(world_, self_),
      m_reads_(&world_.metrics().counter("proto.pb.reads")),
      m_writes_(&world_.metrics().counter("proto.pb.writes")),
      m_syncs_(&world_.metrics().counter("proto.pb.syncs")) {
  std::vector<NodeId> backups;
  for (NodeId r : cfg_->replicas) {
    if (r != cfg_->primary) backups.push_back(r);
  }
  if (!backups.empty()) {
    // Synchronous propagation must reach every backup: a ROWA-shaped system
    // over the backups (write quorum = all).
    backups_ = quorum::ThresholdQuorum::rowa(std::move(backups));
  }
  if (cfg_->wal) {
    wal_ = std::make_unique<store::Wal>(world_, self_, *cfg_->wal);
    m_recoveries_ = &world_.metrics().counter("proto.pb.recoveries");
  }
}

void PbServer::on_crash() {
  // In-flight sync propagations are volatile; clients retransmit.
  engine_.cancel_all();
  if (wal_ == nullptr) return;  // legacy model: state survives as if durable
  store_.clear();
  applied_.clear();
  write_seq_ = 0;
  wal_->on_crash();
}

void PbServer::on_recover() {
  if (wal_ == nullptr) return;
  wal_->replay([this](const store::WalRecord& r) {
    switch (r.kind) {
      case store::WalRecordKind::kPut:
        store_.apply(r.object, r.value, r.clock);
        if (r.clock.writer == self_.value()) {
          write_seq_ = std::max(write_seq_, r.clock.counter);
        }
        break;
      case store::WalRecordKind::kNote:
        // Dedupe entry.  Its put is always durable when the note is (the
        // put is appended first), so re-acking from this entry never acks a
        // lost value.
        applied_[{r.node, r.rpc}] = r.clock;
        write_seq_ = std::max(write_seq_, r.clock.counter);
        break;
      case store::WalRecordKind::kEpoch:
      case store::WalRecordKind::kClockMark:
        break;
    }
  });
  m_recoveries_->inc();
}

bool PbServer::on_message(const sim::Envelope& env) {
  if (std::holds_alternative<msg::Read>(env.body) ||
      std::holds_alternative<msg::Write>(env.body)) {
    // Client-facing: only the primary serves these, after the processing
    // delay.  A non-primary silently ignores them (clients only target the
    // primary; anything else is a stray).
    if (!is_primary()) return true;
    sim::defer_processing(world_, self_, [this, env] { handle(env); });
    return true;
  }
  if (std::holds_alternative<msg::PbSync>(env.body)) {
    handle(env);
    return true;
  }
  if (std::holds_alternative<msg::PbSyncAck>(env.body)) {
    return engine_.on_reply(env);
  }
  return false;
}

void PbServer::handle(const sim::Envelope& env) {
  if (const auto* m = std::get_if<msg::Read>(&env.body)) {
    m_reads_->inc();
    const VersionedValue vv = store_.get(m->object);
    world_.reply(self_, env, msg::ReadReply{m->object, vv.value, vv.clock});
  } else if (const auto* m = std::get_if<msg::Write>(&env.body)) {
    m_writes_->inc();
    // The primary orders writes; clients carry no clock.  Retransmissions
    // (same client + rpc id) must not be applied twice.
    const auto key = std::make_pair(env.src, env.rpc_id);
    if (auto it = applied_.find(key); it != applied_.end()) {
      world_.reply(self_, env, msg::WriteAck{m->object, it->second});
      return;
    }
    const LogicalClock lc{++write_seq_, self_.value()};
    applied_.emplace(key, lc);
    store_.apply(m->object, m->value, lc);
    if (wal_ != nullptr) {
      // Put before note: the client ack (inside propagate) is gated on the
      // note, so "note durable" implies "value durable" and the recovered
      // dedupe map can safely re-ack retransmissions.
      wal_->append(store::WalRecord::put(m->object, m->value, lc));
      const store::Wal::Lsn note_lsn =
          wal_->append(store::WalRecord::note(env.src, env.rpc_id, lc));
      wal_->when_durable(note_lsn, [this, mw = *m, lc, env] {
        propagate(mw.object, mw.value, lc, env);
      });
      return;
    }
    propagate(m->object, m->value, lc, env);
  } else if (const auto* m = std::get_if<msg::PbSync>(&env.body)) {
    m_syncs_->inc();
    store_.apply(m->object, m->value, m->clock);
    if (wal_ != nullptr) {
      // Backups log too (so a restarted backup recovers its state), but
      // their sync-acks are not durability-gated: reads are served by the
      // primary alone, so backup durability is never load-bearing here.
      wal_->append(store::WalRecord::put(m->object, m->value, m->clock));
    }
    world_.reply(self_, env,
                 msg::PbSyncAck{m->object, m->clock});
  }
}

void PbServer::propagate(ObjectId o, const Value& v, LogicalClock lc,
                         const sim::Envelope& client_env) {
  const NodeId client = client_env.src;
  const RequestId rpc = client_env.rpc_id;
  if (backups_ == nullptr) {
    world_.send_tagged(self_, client, rpc, msg::WriteAck{o, lc}, true);
    return;
  }
  if (cfg_->mode == PbMode::kAsyncPropagation) {
    // Ack first, push to backups in the background (one client round trip,
    // as the paper's Figure 6 assumes for primary/backup).
    world_.send_tagged(self_, client, rpc, msg::WriteAck{o, lc}, true);
    for (NodeId b : backups_->members()) {
      world_.send(self_, b, RequestId(0), msg::PbSync{o, v, lc});
    }
    return;
  }
  engine_.call(
      *backups_, quorum::Kind::kWrite,
      [o, v, lc](NodeId) -> std::optional<msg::Payload> {
        return msg::PbSync{o, v, lc};
      },
      [](NodeId, const msg::Payload&) {},
      [this, o, lc, client, rpc](bool ok) {
        // The sync call carries the deployment's rpc options, op deadline
        // included.  If it expires, send no ack: the client's own retries
        // and deadline settle the write, and the history checker treats an
        // un-acked write as concurrent with later reads.
        if (!ok) return;
        world_.send_tagged(self_, client, rpc, msg::WriteAck{o, lc}, true);
      },
      cfg_->rpc);
}

}  // namespace dq::protocols
