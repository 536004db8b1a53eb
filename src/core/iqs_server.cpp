#include "core/iqs_server.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "msg/epoch.h"
#include "sim/processing.h"

namespace dq::core {

namespace {
// Pad a lease duration by the worst-case relative clock-rate error.
sim::Duration padded(sim::Duration lease, double max_drift) {
  if (lease >= sim::kTimeInfinity) return sim::kTimeInfinity;
  return static_cast<sim::Duration>(static_cast<double>(lease) *
                                    (1.0 + max_drift));
}
}  // namespace

IqsServer::IqsServer(sim::World& world, NodeId self,
                     std::shared_ptr<const DqConfig> config)
    : world_(world), self_(self), cfg_(std::move(config)),
      engine_(world_, self_) {
  DQ_INVARIANT(cfg_->iqs && cfg_->oqs, "DqConfig must name both systems");
  DQ_INVARIANT(cfg_->iqs->is_member(self_), "IqsServer on a non-member node");
  auto& m = world_.metrics();
  m_load_ = &m.counter(obs::node_metric("iqs.load", self_.value()));
  m_writes_ = &m.counter("iqs.writes");
  m_lc_reads_ = &m.counter("iqs.lc_reads");
  m_renewals_ = &m.counter("iqs.renewals");
  m_lease_grants_ = &m.counter("iqs.lease.grants");
  m_lease_expiries_ = &m.counter("iqs.lease.expiries");
  m_epoch_bumps_ = &m.counter("iqs.epoch_bumps");
  m_suppressed_ = &m.counter("iqs.writes_suppressed");
  m_delayed_depth_ = &m.gauge("iqs.delayed_queue.depth");
  m_h_suppress_ = &m.histogram("dqvl.write.suppress_ms");
  m_h_invalidate_ = &m.histogram("dqvl.write.invalidate_ms");
  m_h_lease_wait_ = &m.histogram("dqvl.write.lease_wait_ms");
  if (cfg_->wal) {
    wal_ = std::make_unique<store::Wal>(world_, self_, *cfg_->wal);
    m_recoveries_ = &m.counter("iqs.recoveries");
    m_h_recovery_ms_ = &m.histogram("iqs.recovery_downtime_ms");
  }
}

bool IqsServer::on_message(const sim::Envelope& env) {
  // Client-facing requests pay the constant per-request processing delay;
  // internal renewal/invalidation traffic does not (see sim/processing.h).
  if (std::get_if<msg::DqLcRead>(&env.body) != nullptr) {
    m_load_->inc();
    sim::defer_processing(world_, self_, [this, env] {
      handle_lc_read(env, std::get<msg::DqLcRead>(env.body));
    });
    return true;
  }
  if (std::get_if<msg::DqWrite>(&env.body) != nullptr) {
    m_load_->inc();
    sim::defer_processing(world_, self_, [this, env] {
      handle_write(env, std::get<msg::DqWrite>(env.body));
    });
    return true;
  }
  if (const auto* m = std::get_if<msg::DqInvalAck>(&env.body)) {
    m_load_->inc();
    handle_inval_ack(env, *m);
    return true;
  }
  if (const auto* m = std::get_if<msg::DqVolRenew>(&env.body)) {
    m_load_->inc();
    m_renewals_->inc();
    handle_vol_renew(env, *m);
    return true;
  }
  if (const auto* m = std::get_if<msg::DqVolRenewAck>(&env.body)) {
    m_load_->inc();
    handle_vol_renew_ack(env, *m);
    return true;
  }
  if (const auto* m = std::get_if<msg::DqVolRenewBatch>(&env.body)) {
    m_load_->inc();
    m_renewals_->inc(m->renewals.size());
    msg::DqVolRenewBatchReply out;
    out.replies.reserve(m->renewals.size());
    for (const msg::DqVolRenew& r : m->renewals) {
      out.replies.push_back(grant_lease(env.src, r.volume, r.requestor_time));
    }
    reply(env, std::move(out));
    return true;
  }
  if (const auto* m = std::get_if<msg::DqVolRenewAckBatch>(&env.body)) {
    m_load_->inc();
    for (const msg::DqVolRenewAck& a : m->acks) {
      handle_vol_renew_ack(env, a);
    }
    return true;
  }
  if (const auto* m = std::get_if<msg::DqObjRenew>(&env.body)) {
    m_load_->inc();
    m_renewals_->inc();
    handle_obj_renew(env, *m);
    return true;
  }
  if (const auto* m = std::get_if<msg::DqVolObjRenew>(&env.body)) {
    m_load_->inc();
    m_renewals_->inc();
    handle_vol_obj_renew(env, *m);
    return true;
  }
  if (const auto* m = std::get_if<msg::DqVolFetch>(&env.body)) {
    m_load_->inc();
    m_renewals_->inc();
    handle_vol_fetch(env, *m);
    return true;
  }
  return false;
}

void IqsServer::on_crash() {
  // In-flight invalidation machines are volatile under either durability
  // model: clients retransmit their writes and the machines are rebuilt.
  engine_.cancel_all();
  if (wal_ == nullptr) {
    // Legacy durable fiction: object data and callback/lease state survive
    // as if written through before every ack.
    objects_.for_each(
        [](std::uint64_t, ObjState& os) { os.ensure.reset(); });
    return;
  }
  crashed_at_ = world_.now();
  // dqlint:allow(durable-state): crash wipes the volatile image; the
  // durable copy lives in the WAL and on_recover's replay rebuilds it.
  objects_.clear();
  logical_clock_ = LogicalClock::zero();
  clock_reserved_ = 0;
  std::int64_t wiped_delayed = 0;
  for (auto& [key, ls] : leases_) {
    wiped_delayed += static_cast<std::int64_t>(ls.delayed.size());
    ls.expiry_timer.cancel();
  }
  if (wiped_delayed != 0) m_delayed_depth_->add(-wiped_delayed);
  leases_.clear();
  grace_until_ = 0;
  wal_->on_crash();
}

void IqsServer::on_recover() {
  if (wal_ == nullptr) return;  // legacy model: state never left
  // Rebuild the durable image: store contents + logical clock from kPut
  // records, the epoch each (volume, node) pair had reached from kEpoch
  // records.  Callback state (last_read and the holders) is NOT
  // recovered -- absent entries are conservative, and the grace window
  // below covers the one case where "absent" would be unsafe.
  wal_->replay([this](const store::WalRecord& r) {
    switch (r.kind) {
      case store::WalRecordKind::kPut: {
        auto& os = obj(r.object);
        if (r.clock > os.last_write) {
          os.last_write = r.clock;
          os.value = r.value;
        }
        logical_clock_ = std::max(logical_clock_, r.clock);
        break;
      }
      case store::WalRecordKind::kEpoch: {
        auto& ls = leases_[{r.volume, r.node}];
        ls.epoch = msg::epoch_max(ls.epoch, r.epoch);
        break;
      }
      case store::WalRecordKind::kClockMark: {
        // Resume past every counter the pre-crash incarnation may have
        // exposed: pre-crash mints observed counters < the mark, so any
        // clock minted from this node post-recovery is strictly above
        // every orphaned (applied-but-unacked, lost) pre-crash clock.
        // (The record's epoch field carries the reserved clock counter,
        // not a lease epoch.)
        const std::uint64_t reserved = r.epoch;
        logical_clock_.counter = std::max(logical_clock_.counter, reserved);
        clock_reserved_ = std::max(clock_reserved_, reserved);
        break;
      }
      case store::WalRecordKind::kNote:
        break;
    }
  });
  recovered_mark_ = clock_reserved_;
  reserve_clock();
  // Advance every recovered pair's epoch (durably, before any new grant can
  // expose it): all object leases granted by the pre-crash incarnation die
  // at their holder's next volume renewal, so the delayed-invalidation
  // queues that crashed with us need no persistence -- exactly the paper's
  // epoch mechanism, now load-bearing.
  for (auto& [key, ls] : leases_) advance_epoch(key.first, key.second, ls);
  // Grace window: until every pre-crash volume lease has expired at its
  // holder, node_safe may not treat absent holder / lease entries as
  // "holder has no lease" -- those tables were wiped, not empty.  Two
  // padded lease lengths past recovery is safely past the last possible
  // pre-crash grant's expiry under worst-case rate drift.  (With infinite
  // leases -- dq-basic -- the window never closes: writes then always
  // invalidate through, which is the basic protocol's behavior anyway.)
  const sim::Duration dur = padded(cfg_->lease_length, cfg_->max_drift);
  grace_until_ = dur >= sim::kTimeInfinity ? sim::kTimeInfinity
                                           : local_now() + 2 * dur;
  if (grace_until_ < sim::kTimeInfinity) {
    world_.set_timer_local(self_, grace_until_,
                           [this] { end_recovery_grace(); });
  }
  m_recoveries_->inc();
  m_h_recovery_ms_->observe(sim::to_ms(world_.now() - crashed_at_));
  if (world_.tracing()) {
    world_.trace(self_, "recovery",
                 "replayed " + std::to_string(wal_->durable_records()) +
                     " records, " + std::to_string(leases_.size()) +
                     " epochs bumped");
  }
}

void IqsServer::reserve_clock() {
  if (wal_ == nullptr || logical_clock_.counter < clock_reserved_) return;
  clock_reserved_ =
      (logical_clock_.counter / kClockBlock + 1) * kClockBlock;
  // Synchronously durable: the mark must hit the medium before the counter
  // it covers can escape in an LC-read reply or a served value.
  wal_->append_durable(store::WalRecord::clock_mark(clock_reserved_));
}

void IqsServer::end_recovery_grace() {
  // Writes that spent the grace window blocked on unreachable OQS nodes can
  // now fall back to the lease-expiry cases of node_safe.
  std::vector<ObjectId> affected;
  objects_.for_each([&affected](std::uint64_t o, const ObjState& os) {
    if (os.ensure != nullptr && os.ensure->call != 0) affected.emplace_back(o);
  });
  std::sort(affected.begin(), affected.end());
  for (ObjectId o : affected) poke_ensure(o);
}

void IqsServer::reply(const sim::Envelope& to, msg::Payload body) {
  world_.reply(self_, to, std::move(body));
}

IqsServer::Holder& IqsServer::holder(ObjState& os, NodeId j) {
  for (Holder& h : os.holders) {
    if (h.node == j) return h;
  }
  Holder& h = os.holders.emplace_back();
  h.node = j;
  return h;
}

const IqsServer::Holder* IqsServer::find_holder(const ObjState& os,
                                                NodeId j) {
  for (const Holder& h : os.holders) {
    if (h.node == j) return &h;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Client-facing handlers
// ---------------------------------------------------------------------------

void IqsServer::handle_lc_read(const sim::Envelope& env,
                               const msg::DqLcRead& m) {
  m_lc_reads_->inc();
  reply(env, msg::DqLcReadReply{m.object, logical_clock_});
}

void IqsServer::handle_write(const sim::Envelope& env, const msg::DqWrite& m) {
  m_writes_->inc();
  auto& os = obj(m.object);
  if (m.clock > os.last_write) {
    os.last_write = m.clock;
    os.value = m.value;
  }
  logical_clock_ = std::max(logical_clock_, m.clock);
  reserve_clock();

  if (wal_ != nullptr) {
    // The in-memory apply above may expose the value (via grant_object)
    // before it is durable; that is safe, because if a crash then loses the
    // record the write was never acked, and the checker forever accepts
    // values from incomplete writes.  What is NOT allowed is acking first:
    // every ack path lives in continue_write, gated on the record's sync.
    const store::Wal::Lsn lsn =
        wal_->append(store::WalRecord::put(m.object, m.value, m.clock));
    wal_->when_durable(lsn, [this, env, m] { continue_write(env, m); });
    return;
  }
  continue_write(env, m);
}

void IqsServer::continue_write(const sim::Envelope& env, const msg::DqWrite& m) {
  ObjState& os = obj(m.object);
  if (os.ensure == nullptr) os.ensure = std::make_unique<Ensure>();
  Ensure& en = *os.ensure;
  if (m.clock <= en.ensured) {
    // An OQS write quorum is already unable to read anything older.
    m_suppressed_->inc();
    m_h_suppress_->observe(0.0);
    reply(env, msg::DqWriteAck{m.object, m.clock});
    return;
  }
  // Register the waiter (dedupe retransmissions by src + rpc id).
  const bool duplicate = std::any_of(
      en.waiters.begin(), en.waiters.end(), [&](const Waiter& w) {
        return w.src == env.src && w.rpc_id == env.rpc_id;
      });
  if (!duplicate) en.waiters.push_back({env.src, env.rpc_id, m.clock});
  en.target = std::max(en.target, os.last_write);
  if (en.call == 0) {
    // Fresh episode: the phase breakdown measures from the first blocked
    // write until the whole batch is ensured.
    en.started = world_.now();
    en.sent_invals = false;
    en.lease_expiry_involved = false;
  }
  start_or_extend_ensure(m.object);
}

void IqsServer::handle_inval_ack(const sim::Envelope& env,
                                 const msg::DqInvalAck& m) {
  auto& os = obj(m.object);
  Holder& h = holder(os, env.src);
  h.acked = std::max(h.acked, m.clock);
  poke_ensure(m.object);
}

// ---------------------------------------------------------------------------
// Ensure machine: make an OQS write quorum unable to read stale data
// ---------------------------------------------------------------------------

bool IqsServer::node_safe(NodeId j, ObjectId o, const ObjState& os,
                          LogicalClock lc) {
  const Holder* h = find_holder(os, j);
  const LogicalClock ack = h != nullptr ? h->acked : LogicalClock{};

  // (a) j acked an invalidation at or above this write's clock.
  if (ack >= lc) return true;
  // (a') i knows j's copy is invalid: j acked an invalidation after the last
  // renewal of o by any OQS node, and can only re-validate by renewing from
  // an IQS read quorum (which would observe the new value).  Inside the
  // recovery grace window the crash has wiped last_read, and j may still
  // hold a pre-crash grant at the acked clock itself, which that
  // invalidation left valid.  Every clock the pre-crash incarnation granted
  // lies below recovered_mark_, so only an ack at or above the mark
  // supersedes such a grant.
  const bool grace = in_recovery_grace();
  if (cfg_->suppression_enabled && os.last_read < ack &&
      (!grace || ack.counter >= recovered_mark_)) {
    return true;
  }
  // Cases (a'') and (b) read this node's lease bookkeeping and treat an
  // absent or expired entry as "j cannot be serving stale data".  During
  // the recovery grace window that inference is wrong -- the holders and
  // the lease table were wiped by the crash, so absence proves nothing and
  // j may still hold live pre-crash leases.  Both cases are skipped until
  // every pre-crash lease has provably expired; writes fall through to (c)
  // and invalidate an OQS write quorum outright.
  // (a'') j holds no live object lease on o FROM THIS NODE -- it never
  // renewed o here, or its finite object lease (footnote 4) lapsed.
  // Condition C requires a valid object lease from every member of the read
  // quorum j uses, so j cannot serve o counting this node without first
  // object-renewing here, which returns the new value.  No invalidation and
  // no delayed-queue entry are needed.
  if (!grace) {
    if (h == nullptr || !h->leased || h->lease_expires <= local_now()) {
      return true;
    }
  }
  // (b) j's volume lease is expired (or was never granted): j cannot serve
  // the object until it renews the volume, at which point it will receive
  // the delayed invalidation enqueued here.
  const VolumeId v = cfg_->volumes.volume_of(o);
  if (!grace && !lease_valid(v, j)) {
    auto& ls = lease(v, j);
    const std::size_t before = ls.delayed.size();
    auto& slot = ls.delayed[o];
    slot = std::max(slot, os.last_write);
    if (ls.delayed.size() != before) m_delayed_depth_->add(+1);
    if (world_.tracing()) {
      world_.trace(self_, "lease",
                   "delayed inval for n" + std::to_string(j.value()) +
                       " obj " + std::to_string(o.value()));
    }
    maybe_gc_epoch(v, j);
    return true;
  }
  // (c) lease valid and copy possibly valid: an invalidation must be acked
  // (or the lease must expire) before this node counts toward the quorum.
  return false;
}

bool IqsServer::owq_invalid(ObjectId o, const ObjState& os, LogicalClock lc) {
  // Ask every member, in order, even past a quorum: node_safe may enqueue
  // a delayed invalidation for it.
  const std::vector<NodeId>& members = cfg_->oqs->members();
  quorum::Positions safe;
  for (std::size_t k = 0; k < members.size(); ++k) {
    safe.set(k, node_safe(members[k], o, os, lc));
  }
  return cfg_->oqs->is_quorum(quorum::Kind::kWrite, safe);
}

void IqsServer::start_or_extend_ensure(ObjectId o) {
  Ensure& en = *obj(o).ensure;
  if (en.call != 0) {
    if (en.target <= en.call_target) {
      engine_.poke(en.call);
      return;
    }
    // A higher-clock write arrived while a machine was running: restart it
    // so fresh invalidations (carrying the new clock) go out immediately
    // instead of waiting for the next retransmission interval.
    engine_.cancel(en.call);
    en.call = 0;
  }
  en.call_target = en.target;
  // call_until may complete synchronously (condition already true); in that
  // case on_complete runs before the id is returned and we must not record
  // a stale call id.
  auto completed = std::make_shared<bool>(false);
  const rpc::CallId id = engine_.call_until(
      *cfg_->oqs, quorum::Kind::kWrite,
      /*build=*/
      [this, o](NodeId j) -> std::optional<msg::Payload> {
        ObjState& os = obj(o);
        if (node_safe(j, o, os, os.ensure->target)) return std::nullopt;
        os.ensure->sent_invals = true;
        return msg::DqInval{o, os.last_write};
      },
      /*on_reply=*/
      [](NodeId, const msg::Payload&) {
        // Acks are applied in handle_inval_ack before the engine sees them.
      },
      /*done=*/
      [this, o] {
        const ObjState* os = find_obj(o);
        return os == nullptr || os->ensure == nullptr ||
               owq_invalid(o, *os, os->ensure->target);
      },
      /*on_complete=*/
      [this, o, completed](bool ok) {
        DQ_INVARIANT(ok, "ensure machines have no deadline; cannot fail");
        *completed = true;
        finish_ensure(o);
      },
      [this] {
        // The ensure machine never gives up: a blocked write is eventually
        // unblocked by acks or by lease expiry (bounded by L).  Client-side
        // deadlines are the mechanism that turns partitions into rejections.
        rpc::QrpcOptions opts = cfg_->rpc;
        opts.deadline = sim::kTimeInfinity;
        return opts;
      }());
  if (world_.tracing()) {
    world_.trace(self_, "write", *completed
                                     ? "write-suppress obj " +
                                           std::to_string(o.value())
                                     : "write-through obj " +
                                           std::to_string(o.value()));
  }
  if (!*completed) obj(o).ensure->call = id;
}

void IqsServer::finish_ensure(ObjectId o) {
  ObjState* os = find_obj(o);
  if (os == nullptr || os->ensure == nullptr) return;
  Ensure& en = *os->ensure;
  en.call = 0;
  en.ensured = std::max(en.ensured, en.target);
  // Fold the episode into the write-phase breakdown: suppressed (no
  // invalidation needed), invalidation round trips, or blocked until a
  // volume lease expired.
  if (en.started != 0 || !en.waiters.empty()) {
    const double elapsed_ms = sim::to_ms(world_.now() - en.started);
    if (!en.sent_invals) {
      m_suppressed_->inc();
      m_h_suppress_->observe(elapsed_ms);
    } else if (en.lease_expiry_involved) {
      m_h_lease_wait_->observe(elapsed_ms);
    } else {
      m_h_invalidate_->observe(elapsed_ms);
    }
  }
  en.started = 0;
  en.sent_invals = false;
  en.lease_expiry_involved = false;
  std::vector<Waiter> ready;
  for (const Waiter& w : en.waiters) {
    DQ_INVARIANT(w.clock <= en.ensured,
                 "waiter above ensure target should be impossible");
    ready.push_back(w);
  }
  en.waiters.clear();
  // Keep `ensured` for fast-acking duplicate retransmissions; the entry is
  // small and bounded by the number of live objects.
  for (const Waiter& w : ready) {
    // dqlint:allow(proto-direct-send): deferred reply tagged with the
    // recorded waiter's rpc id -- the reply path when the envelope is gone.
    world_.send_tagged(self_, w.src, w.rpc_id, msg::DqWriteAck{o, w.clock},
                       /*is_reply=*/true);
  }
}

void IqsServer::poke_ensure(ObjectId o) {
  const ObjState* os = find_obj(o);
  if (os != nullptr && os->ensure != nullptr && os->ensure->call != 0) {
    engine_.poke(os->ensure->call);
  }
}

void IqsServer::poke_volume(VolumeId v) {
  // A lease on v expired: writes blocked on that lease may now complete.
  m_lease_expiries_->inc();
  std::vector<ObjectId> affected;
  objects_.for_each([&](std::uint64_t o, ObjState& os) {
    if (os.ensure != nullptr && os.ensure->call != 0 &&
        cfg_->volumes.volume_of(ObjectId(o)) == v) {
      os.ensure->lease_expiry_involved = true;
      affected.emplace_back(o);
    }
  });
  std::sort(affected.begin(), affected.end());
  for (ObjectId o : affected) poke_ensure(o);
}

// ---------------------------------------------------------------------------
// Lease handlers
// ---------------------------------------------------------------------------

IqsServer::LeaseState& IqsServer::lease(VolumeId v, NodeId j) {
  auto [it, inserted] = leases_.try_emplace({v, j});
  if (inserted && wal_ != nullptr) {
    // Record the pair's existence durably at epoch 0: recovery must know
    // every pair this incarnation ever granted to, so it can advance each
    // one past anything the pre-crash incarnation handed out.
    wal_->append_durable(
        store::WalRecord::epoch_record(v, j, it->second.epoch));
  }
  return it->second;
}

const IqsServer::LeaseState* IqsServer::find_lease(VolumeId v, NodeId j) const {
  auto it = leases_.find({v, j});
  return it == leases_.end() ? nullptr : &it->second;
}

bool IqsServer::lease_valid(VolumeId v, NodeId j) const {
  const LeaseState* ls = find_lease(v, j);
  return ls != nullptr && ls->expires > local_now();
}

msg::DqVolRenewReply IqsServer::grant_lease(NodeId j, VolumeId v,
                                            sim::Time requestor_time) {
  m_lease_grants_->inc();
  auto& ls = lease(v, j);
  msg::DqVolRenewReply r;
  r.volume = v;
  r.lease_length = cfg_->lease_length;
  r.epoch = ls.epoch;
  r.requestor_time = requestor_time;
  r.delayed.reserve(ls.delayed.size());
  for (const auto& [o, lc] : ls.delayed) r.delayed.push_back({o, lc});

  const sim::Duration dur = padded(cfg_->lease_length, cfg_->max_drift);
  ls.expires = (dur >= sim::kTimeInfinity) ? sim::kTimeInfinity
                                           : local_now() + dur;
  ls.expiry_timer.cancel();
  if (ls.expires < sim::kTimeInfinity) {
    ls.expiry_timer = world_.set_timer_local(
        self_, ls.expires, [this, v] { poke_volume(v); });
  }
  if (world_.tracing()) {
    world_.trace(self_, "lease",
                 "grant vol " + std::to_string(v.value()) + " to n" +
                     std::to_string(j.value()) + " (" +
                     std::to_string(r.delayed.size()) + " delayed)");
  }
  return r;
}

void IqsServer::advance_epoch(VolumeId v, NodeId j, LeaseState& ls) {
  if (wal_ != nullptr) {
    // Durable BEFORE the counter moves: were the bump record lost, a later
    // recovery could re-issue the pre-crash epoch and stale object leases
    // would revalidate at their holder's next volume renewal.
    wal_->append_durable(
        store::WalRecord::epoch_record(v, j, ls.epoch + 1));
  }
  // dqlint:allow(durable-state): the matching kEpoch record was synced on
  // the line above; this helper is the only place an epoch counter moves.
  ++ls.epoch;
  m_epoch_bumps_->inc();
  if (world_.tracing()) {
    world_.trace(self_, "lease",
                 "epoch bump for n" + std::to_string(j.value()) + " vol " +
                     std::to_string(v.value()) + " -> " +
                     std::to_string(ls.epoch));
  }
}

void IqsServer::maybe_gc_epoch(VolumeId v, NodeId j) {
  auto& ls = lease(v, j);
  if (ls.delayed.size() <= cfg_->max_delayed_per_volume) return;
  // Only safe while j holds no valid lease: after the epoch advances, j's
  // object leases from this node die at its next volume renewal.
  if (ls.expires > local_now()) return;
  m_delayed_depth_->add(-static_cast<std::int64_t>(ls.delayed.size()));
  ls.delayed.clear();
  advance_epoch(v, j, ls);
}

void IqsServer::handle_vol_renew(const sim::Envelope& env,
                                 const msg::DqVolRenew& m) {
  reply(env, grant_lease(env.src, m.volume, m.requestor_time));
}

void IqsServer::handle_vol_renew_ack(const sim::Envelope& env,
                                     const msg::DqVolRenewAck& m) {
  auto it = leases_.find({m.volume, env.src});
  if (it == leases_.end()) return;
  LeaseState& ls = it->second;
  std::vector<ObjectId> confirmed;
  for (auto d = ls.delayed.begin(); d != ls.delayed.end();) {
    if (d->second <= m.applied_up_to) {
      // j confirmed it applied this delayed invalidation: its cached copy is
      // now invalid up to the queued clock -- record the implied ack.
      Holder& h = holder(obj(d->first), env.src);
      h.acked = std::max(h.acked, d->second);
      confirmed.push_back(d->first);
      d = ls.delayed.erase(d);
      m_delayed_depth_->add(-1);
    } else {
      ++d;
    }
  }
  for (ObjectId o : confirmed) poke_ensure(o);
}

msg::DqObjRenewReply IqsServer::grant_object(NodeId j, ObjectId o,
                                             sim::Time requestor_time) {
  auto& os = obj(o);
  os.last_read = os.last_write;
  const sim::Duration dur = padded(cfg_->object_lease_length, cfg_->max_drift);
  Holder& h = holder(os, j);
  const sim::Time exp = dur >= sim::kTimeInfinity ? sim::kTimeInfinity
                                                  : local_now() + dur;
  h.leased = true;
  h.lease_expires = std::max(h.lease_expires, exp);
  const VolumeId v = cfg_->volumes.volume_of(o);
  return msg::DqObjRenewReply{o,
                              os.value,
                              os.last_write,
                              lease(v, j).epoch,
                              cfg_->object_lease_length,
                              requestor_time};
}

void IqsServer::handle_obj_renew(const sim::Envelope& env,
                                 const msg::DqObjRenew& m) {
  reply(env, grant_object(env.src, m.object, m.requestor_time));
}

void IqsServer::handle_vol_obj_renew(const sim::Envelope& env,
                                     const msg::DqVolObjRenew& m) {
  msg::DqVolObjRenewReply r;
  r.vol = grant_lease(env.src, m.volume, m.requestor_time);
  r.obj = grant_object(env.src, m.object, m.requestor_time);
  reply(env, std::move(r));
}

void IqsServer::handle_vol_fetch(const sim::Envelope& env,
                                 const msg::DqVolFetch& m) {
  // Bulk revalidation: one volume lease plus object grants for everything
  // this node stores in the volume.  The reply is bounded: a volume with
  // more objects than the cap falls back to per-object renewals for the
  // tail (the requestor's read machine handles those as ordinary misses).
  // Grants go out in ascending object order.
  constexpr std::size_t kMaxObjectsPerFetch = 1024;
  msg::DqVolFetchReply r;
  r.vol = grant_lease(env.src, m.volume, m.requestor_time);
  std::vector<ObjectId> ids;
  objects_.for_each([&](std::uint64_t o, const ObjState&) {
    if (cfg_->volumes.volume_of(ObjectId(o)) == m.volume) ids.emplace_back(o);
  });
  std::sort(ids.begin(), ids.end());
  if (ids.size() > kMaxObjectsPerFetch) ids.resize(kMaxObjectsPerFetch);
  r.objects.reserve(ids.size());
  for (ObjectId o : ids) {
    r.objects.push_back(grant_object(env.src, o, m.requestor_time));
  }
  reply(env, std::move(r));
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

LogicalClock IqsServer::last_write_clock(ObjectId o) const {
  const ObjState* os = find_obj(o);
  return os == nullptr ? LogicalClock{} : os->last_write;
}

LogicalClock IqsServer::last_read_clock(ObjectId o) const {
  const ObjState* os = find_obj(o);
  return os == nullptr ? LogicalClock{} : os->last_read;
}

LogicalClock IqsServer::last_ack_clock(ObjectId o, NodeId j) const {
  const ObjState* os = find_obj(o);
  if (os == nullptr) return {};
  const Holder* h = find_holder(*os, j);
  return h == nullptr ? LogicalClock{} : h->acked;
}

Value IqsServer::value_of(ObjectId o) const {
  const ObjState* os = find_obj(o);
  return os == nullptr ? Value{} : os->value;
}

msg::Epoch IqsServer::epoch_of(VolumeId v, NodeId j) const {
  const LeaseState* ls = find_lease(v, j);
  return ls == nullptr ? 0 : ls->epoch;
}

sim::Time IqsServer::lease_expiry(VolumeId v, NodeId j) const {
  const LeaseState* ls = find_lease(v, j);
  return ls == nullptr ? 0 : ls->expires;
}

std::size_t IqsServer::delayed_queue_size(VolumeId v, NodeId j) const {
  const LeaseState* ls = find_lease(v, j);
  return ls == nullptr ? 0 : ls->delayed.size();
}

}  // namespace dq::core
