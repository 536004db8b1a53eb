#include "protocols/rowa.h"

#include <algorithm>
#include <utility>

#include "sim/processing.h"

namespace dq::protocols {

bool RowaServer::on_message(const sim::Envelope& env) {
  if (!std::holds_alternative<msg::RowaRead>(env.body) &&
      !std::holds_alternative<msg::RowaWrite>(env.body)) {
    return false;
  }
  sim::defer_processing(world_, self_, [this, env] { handle(env); });
  return true;
}

void RowaServer::handle(const sim::Envelope& env) {
  if (const auto* m = std::get_if<msg::RowaRead>(&env.body)) {
    m_reads_->inc();
    const VersionedValue vv = store_.get(m->object);
    world_.reply(self_, env,
                 msg::RowaReadReply{m->object, vv.value, vv.clock});
  } else if (const auto* m = std::get_if<msg::RowaWrite>(&env.body)) {
    m_writes_->inc();
    store_.apply(m->object, m->value, m->clock);
    world_.reply(self_, env,
                 msg::RowaWriteAck{m->object, m->clock});
  }
}

void RowaClient::read(ObjectId o, ReadCallback done) {
  // The read-one system completes on its single reply, so that reply's
  // clock is the one observed.
  QuorumClient::read(o, [this, done = std::move(done)](bool ok,
                                                       VersionedValue vv) {
    seen_ = std::max(seen_, vv.clock);
    done(ok, std::move(vv));
  });
}

void RowaClient::write(ObjectId o, Value value, WriteCallback done) {
  // One round trip: stamp from the colocated replica's clock (see header).
  LogicalClock base = seen_;
  if (local_ != nullptr) base = std::max(base, local_->store().clock_of(o));
  const LogicalClock lc = base.advanced_by(writer_id_);
  seen_ = std::max(seen_, lc);
  engine_.call(
      *writes_, quorum::Kind::kWrite,
      [o, lc, value = std::move(value)](NodeId) -> std::optional<msg::Payload> {
        return msg::RowaWrite{o, value, lc};
      },
      [](NodeId, const msg::Payload&) {},
      [lc, done = std::move(done)](bool ok) { done(ok, lc); }, opts_);
}

}  // namespace dq::protocols
