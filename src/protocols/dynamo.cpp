#include "protocols/dynamo.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "sim/processing.h"

namespace dq::protocols {
namespace {

// Period of the hinted-handoff round.
constexpr sim::Duration kHandoffInterval = sim::seconds(1);
// How long a completed read keeps collecting replies before repairing.
constexpr sim::Duration kRepairLinger = sim::milliseconds(800);

}  // namespace

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

DynamoServer::DynamoServer(sim::World& world, NodeId self,
                           std::shared_ptr<const DynamoConfig> cfg)
    : world_(world), self_(self), cfg_(std::move(cfg)),
      m_reads_(&world_.metrics().counter("proto.dynamo.reads")),
      m_writes_(&world_.metrics().counter("proto.dynamo.writes")),
      m_hinted_writes_(&world_.metrics().counter("proto.dynamo.hinted_writes")),
      m_handoffs_(&world_.metrics().counter("proto.dynamo.handoffs")),
      m_repairs_(&world_.metrics().counter("proto.dynamo.repairs")) {
  if (cfg_->wal) {
    wal_ = std::make_unique<store::Wal>(world_, self_, *cfg_->wal);
    m_recoveries_ = &world_.metrics().counter("proto.dynamo.recoveries");
  }
}

void DynamoServer::start_handoff() {
  world_.set_timer(self_, kHandoffInterval, [this] {
    handoff_round();
    start_handoff();
  });
}

void DynamoServer::handoff_round() {
  for (const auto& [home, objs] : hints_) {
    for (const auto& [o, vv] : objs) {
      m_handoffs_->inc();
      world_.send(self_, NodeId(home), RequestId(0),
                  msg::DynHandoff{o, vv.value, vv.clock});
    }
  }
}

bool DynamoServer::on_message(const sim::Envelope& env) {
  if (std::holds_alternative<msg::Read>(env.body) ||
      std::holds_alternative<msg::DynWrite>(env.body)) {
    sim::defer_processing(world_, self_, [this, env] { handle(env); });
    return true;
  }
  if (std::holds_alternative<msg::DynHandoff>(env.body) ||
      std::holds_alternative<msg::DynHandoffAck>(env.body) ||
      std::holds_alternative<msg::DynRepair>(env.body)) {
    handle(env);
    return true;
  }
  return false;
}

void DynamoServer::handle(const sim::Envelope& env) {
  if (const auto* m = std::get_if<msg::Read>(&env.body)) {
    m_reads_->inc();
    const VersionedValue vv = store_.get(m->object);
    world_.reply(self_, env, msg::ReadReply{m->object, vv.value, vv.clock});
  } else if (const auto* m = std::get_if<msg::DynWrite>(&env.body)) {
    m_writes_->inc();
    store_.apply(m->object, m->value, m->clock);
    if (m->hint_for != msg::kNoHint && m->hint_for != self_.value()) {
      m_hinted_writes_->inc();
      VersionedValue& hint = hints_[m->hint_for][m->object];
      if (hint.clock < m->clock) hint = {m->value, m->clock};
    }
    // Ack with the post-apply clock so coordinators learn versions newer
    // than the one they wrote (feeds their site Lamport clocks).
    const msg::WriteAck ack{m->object, store_.clock_of(m->object)};
    if (wal_ != nullptr) {
      const store::Wal::Lsn lsn =
          wal_->append(store::WalRecord::put(m->object, m->value, m->clock));
      wal_->when_durable(lsn,
                         [this, env, ack] { world_.reply(self_, env, ack); });
      return;
    }
    world_.reply(self_, env, ack);
  } else if (const auto* m = std::get_if<msg::DynHandoff>(&env.body)) {
    store_.apply(m->object, m->value, m->clock);
    const msg::DynHandoffAck ack{m->object, m->clock};
    if (wal_ != nullptr) {
      const store::Wal::Lsn lsn =
          wal_->append(store::WalRecord::put(m->object, m->value, m->clock));
      wal_->when_durable(lsn,
                         [this, env, ack] { world_.reply(self_, env, ack); });
      return;
    }
    world_.reply(self_, env, ack);
  } else if (const auto* m = std::get_if<msg::DynHandoffAck>(&env.body)) {
    // The home replica holds the hinted version durably now; drop the hint.
    auto by_home = hints_.find(env.src.value());
    if (by_home != hints_.end()) {
      auto it = by_home->second.find(m->object);
      if (it != by_home->second.end() && !(m->clock < it->second.clock)) {
        by_home->second.erase(it);
        if (by_home->second.empty()) hints_.erase(by_home);
      }
    }
  } else if (const auto* m = std::get_if<msg::DynRepair>(&env.body)) {
    m_repairs_->inc();
    store_.apply(m->object, m->value, m->clock);
    if (wal_ != nullptr) {
      wal_->append(store::WalRecord::put(m->object, m->value, m->clock));
    }
  }
}

void DynamoServer::on_crash() {
  hints_.clear();
  if (wal_ == nullptr) return;  // legacy model: state survives as if durable
  store_.clear();
  wal_->on_crash();
}

void DynamoServer::on_recover() {
  if (wal_ == nullptr) return;
  wal_->replay([this](const store::WalRecord& r) {
    if (r.kind == store::WalRecordKind::kPut) {
      store_.apply(r.object, r.value, r.clock);
    }
  });
  m_recoveries_->inc();
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

DynamoCoordinator::DynamoCoordinator(sim::World& world, NodeId self,
                                     std::shared_ptr<const DynamoConfig> cfg)
    : world_(world), self_(self), cfg_(std::move(cfg)),
      m_reads_(&world_.metrics().counter("proto.dynamo.coord_reads")),
      m_writes_(&world_.metrics().counter("proto.dynamo.coord_writes")),
      m_retries_(&world_.metrics().counter("proto.dynamo.coord_retries")),
      m_repairs_(&world_.metrics().counter("proto.dynamo.read_repairs")) {
  DQ_INVARIANT(cfg_->n >= 1 && cfg_->n <= cfg_->ring.size(),
               "dynamo: n out of range");
  DQ_INVARIANT(cfg_->r >= 1 && cfg_->r <= cfg_->n, "dynamo: r out of range");
  DQ_INVARIANT(cfg_->w >= 1 && cfg_->w <= cfg_->n, "dynamo: w out of range");
}

std::vector<NodeId> DynamoCoordinator::preference_list(ObjectId o) const {
  const std::size_t size = cfg_->ring.size();
  const std::size_t start = static_cast<std::size_t>(o.value() % size);
  std::vector<NodeId> pref;
  pref.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    pref.push_back(cfg_->ring[(start + i) % size]);
  }
  return pref;
}

std::uint64_t DynamoCoordinator::start_op(Op op) {
  const RequestId rpc = world_.fresh_rpc_id();
  const std::uint64_t id = rpc.value();
  op.pref = preference_list(op.object);
  op.fanout = std::min(cfg_->n, op.pref.size());
  op.cur_timeout = rpc::kInitialTimeout;
  if (cfg_->rpc.deadline < sim::kTimeInfinity) {
    op.deadline_at = world_.now() + cfg_->rpc.deadline;
  }
  ops_.emplace(id, std::move(op));
  transmit(id);
  arm_retry(id);
  return id;
}

void DynamoCoordinator::transmit(std::uint64_t id) {
  Op& op = ops_.at(id);
  // Home replicas that have not answered, in preference order: extension
  // nodes accept writes on their behalf (hinted handoff).
  std::vector<NodeId> missing_homes;
  const std::size_t homes = std::min(cfg_->n, op.pref.size());
  for (std::size_t i = 0; i < homes; ++i) {
    if (op.responded.count(op.pref[i]) == 0) {
      missing_homes.push_back(op.pref[i]);
    }
  }
  for (std::size_t p = 0; p < op.fanout; ++p) {
    const NodeId target = op.pref[p];
    if (op.responded.count(target) != 0) continue;
    if (!op.is_write) {
      world_.send(self_, target, RequestId(id), msg::Read{op.object});
      continue;
    }
    std::uint32_t hint = msg::kNoHint;
    if (p >= homes && p - homes < missing_homes.size()) {
      hint = missing_homes[p - homes].value();
    }
    world_.send(self_, target, RequestId(id),
                msg::DynWrite{op.object, op.value, op.lc, hint});
  }
}

void DynamoCoordinator::arm_retry(std::uint64_t id) {
  Op& op = ops_.at(id);
  op.retry = world_.set_timer(self_, op.cur_timeout,
                              [this, id] { on_retry(id); });
}

void DynamoCoordinator::on_retry(std::uint64_t id) {
  auto it = ops_.find(id);
  if (it == ops_.end() || it->second.completed) return;
  Op& op = it->second;
  if (world_.now() >= op.deadline_at) {
    Op failed = std::move(op);
    ops_.erase(it);
    if (failed.is_write) {
      failed.wdone(false, LogicalClock{});
    } else {
      failed.rdone(false, VersionedValue{});
    }
    return;
  }
  m_retries_->inc();
  // Sloppy membership: each round may reach one node further down the ring.
  op.fanout = std::min(op.fanout + 1, op.pref.size());
  transmit(id);
  op.cur_timeout = std::min(
      sim::Duration(static_cast<sim::Duration>(
          static_cast<double>(op.cur_timeout) * rpc::kBackoff)),
      rpc::kMaxTimeout);
  arm_retry(id);
}

void DynamoCoordinator::complete_read(std::uint64_t id) {
  Op& op = ops_.at(id);
  op.completed = true;
  op.retry.cancel();
  ReadCallback done = std::move(op.rdone);
  const VersionedValue result = op.best;
  // Keep the op alive collecting replies, then repair stale responders.
  op.linger = world_.set_timer(self_, kRepairLinger,
                               [this, id] { finish_repair(id); });
  done(true, result);
}

void DynamoCoordinator::finish_repair(std::uint64_t id) {
  auto it = ops_.find(id);
  if (it == ops_.end()) return;
  const Op& op = it->second;
  for (const auto& [node, clock] : op.reply_clocks) {
    if (clock < op.best.clock) {
      m_repairs_->inc();
      world_.send(self_, node, RequestId(0),
                  msg::DynRepair{op.object, op.best.value, op.best.clock});
    }
  }
  ops_.erase(it);
}

void DynamoCoordinator::complete_write(std::uint64_t id) {
  auto node = ops_.extract(id);
  Op& op = node.mapped();
  op.retry.cancel();
  op.wdone(true, op.lc);
}

void DynamoCoordinator::read(ObjectId o, ReadCallback done) {
  m_reads_->inc();
  Op op;
  op.is_write = false;
  op.object = o;
  op.rdone = std::move(done);
  start_op(std::move(op));
}

void DynamoCoordinator::write(ObjectId o, Value value, WriteCallback done) {
  m_writes_->inc();
  Op op;
  op.is_write = true;
  op.object = o;
  op.value = std::move(value);
  op.lc = LogicalClock{++lamport_, self_.value()};
  op.wdone = std::move(done);
  start_op(std::move(op));
}

bool DynamoCoordinator::on_message(const sim::Envelope& env) {
  auto it = ops_.find(env.rpc_id.value());
  if (it == ops_.end()) return false;
  Op& op = it->second;
  if (const auto* r = std::get_if<msg::ReadReply>(&env.body)) {
    if (op.is_write || op.responded.count(env.src) != 0) return true;
    op.responded.insert(env.src);
    op.reply_clocks.emplace(env.src, r->clock);
    lamport_ = std::max(lamport_, r->clock.counter);
    if (op.best.clock <= r->clock) op.best = {r->value, r->clock};
    if (!op.completed && op.responded.size() >= cfg_->r) {
      complete_read(env.rpc_id.value());
    }
    return true;
  }
  if (const auto* a = std::get_if<msg::WriteAck>(&env.body)) {
    if (!op.is_write || op.responded.count(env.src) != 0) return true;
    op.responded.insert(env.src);
    lamport_ = std::max(lamport_, a->clock.counter);
    if (op.responded.size() >= cfg_->w) complete_write(env.rpc_id.value());
    return true;
  }
  return false;
}

void DynamoCoordinator::cancel_all() {
  for (auto& [id, op] : ops_) {
    op.retry.cancel();
    op.linger.cancel();
  }
  ops_.clear();
}

}  // namespace dq::protocols
