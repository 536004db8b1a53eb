#include "protocols/majority.h"

#include "sim/processing.h"

namespace dq::protocols {

bool MajorityServer::on_message(const sim::Envelope& env) {
  const bool mine = std::holds_alternative<msg::MajRead>(env.body) ||
                    std::holds_alternative<msg::MajLcRead>(env.body) ||
                    std::holds_alternative<msg::MajWrite>(env.body);
  if (!mine) return false;
  sim::defer_processing(world_, self_, [this, env] { handle(env); });
  return true;
}

void MajorityServer::handle(const sim::Envelope& env) {
  if (const auto* m = std::get_if<msg::MajRead>(&env.body)) {
    m_reads_->inc();
    const VersionedValue vv = store_.get(m->object);
    world_.reply(self_, env,
                 msg::MajReadReply{m->object, vv.value, vv.clock});
  } else if (const auto* m = std::get_if<msg::MajLcRead>(&env.body)) {
    m_lc_reads_->inc();
    world_.reply(self_, env,
                 msg::MajLcReadReply{m->object, store_.clock_of(m->object)});
  } else if (const auto* m = std::get_if<msg::MajWrite>(&env.body)) {
    m_writes_->inc();
    store_.apply(m->object, m->value, m->clock);
    if (wal_ != nullptr) {
      // No ack before the record is durable: the regular-semantics checker
      // forgives writes that were never acked, never acked-then-lost ones.
      const store::Wal::Lsn lsn =
          wal_->append(store::WalRecord::put(m->object, m->value, m->clock));
      wal_->when_durable(lsn, [this, env, mw = *m] {
        world_.reply(self_, env, msg::MajWriteAck{mw.object, mw.clock});
      });
      return;
    }
    world_.reply(self_, env,
                 msg::MajWriteAck{m->object, m->clock});
  }
}

void MajorityServer::on_crash() {
  if (wal_ == nullptr) return;  // legacy model: state survives as if durable
  store_.clear();
  wal_->on_crash();
}

void MajorityServer::on_recover() {
  if (wal_ == nullptr) return;
  wal_->replay([this](const store::WalRecord& r) {
    if (r.kind == store::WalRecordKind::kPut) {
      store_.apply(r.object, r.value, r.clock);
    }
  });
  m_recoveries_->inc();
}

}  // namespace dq::protocols
