#include "core/oqs_server.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "msg/epoch.h"
#include "sim/processing.h"

namespace dq::core {

OqsServer::OqsServer(sim::World& world, NodeId self,
                     std::shared_ptr<const DqConfig> config)
    : world_(world), self_(self), cfg_(std::move(config)),
      engine_(world_, self_),
      m_load_(&world_.metrics().counter(obs::node_metric("oqs.load", self_.value()))),
      m_hits_(&world_.metrics().counter("oqs.read.hits")),
      m_misses_(&world_.metrics().counter("oqs.read.misses")),
      m_invals_(&world_.metrics().counter("oqs.invalidations")),
      m_h_miss_(&world_.metrics().histogram("dqvl.read.miss_ms")) {
  DQ_INVARIANT(cfg_->iqs && cfg_->oqs, "DqConfig must name both systems");
  DQ_INVARIANT(cfg_->oqs->is_member(self_), "OqsServer on a non-member node");
  if (cfg_->wal) m_recoveries_ = &world_.metrics().counter("oqs.recoveries");
}

bool OqsServer::on_message(const sim::Envelope& env) {
  if (const auto* m = std::get_if<msg::DqRead>(&env.body)) {
    // Client-facing: pays the per-request processing delay.  Only what the
    // read needs waits it out, not a copy of the envelope.
    sim::defer_processing(
        world_, self_,
        [this, src = env.src, rpc = env.rpc_id, object = m->object] {
          handle_read(src, rpc, object);
        });
    return true;
  }
  if (const auto* m = std::get_if<msg::DqInval>(&env.body)) {
    handle_inval(env, *m);
    return true;
  }
  // Renewal replies: apply the (monotone, idempotent) state updates first,
  // then let the QRPC engine account the reply and re-check its predicate.
  // Late replies whose call already finished still freshen our leases.
  Granted granted;
  if (const auto* m = std::get_if<msg::DqVolRenewReply>(&env.body)) {
    apply_vol_renew_reply(env.src, *m, granted);
    engine_.on_reply(env);
    poke_pending(granted);
    return true;
  }
  if (const auto* m = std::get_if<msg::DqVolRenewBatchReply>(&env.body)) {
    std::vector<msg::DqVolRenewAck> acks;
    for (const msg::DqVolRenewReply& r : m->replies) {
      apply_vol_renew_reply(env.src, r, granted, &acks);
    }
    if (!acks.empty()) {
      // dqlint:allow(proto-direct-send): one-way ack batch; no reply is
      // expected, so the QRPC retransmission machinery does not apply.
      world_.send(self_, env.src, RequestId(0),
                  msg::DqVolRenewAckBatch{std::move(acks)});
    }
    poke_pending(granted);
    return true;
  }
  if (const auto* m = std::get_if<msg::DqObjRenewReply>(&env.body)) {
    apply_obj_renew_reply(env.src, *m, granted);
    engine_.on_reply(env);
    poke_pending(granted);
    return true;
  }
  if (const auto* m = std::get_if<msg::DqVolFetchReply>(&env.body)) {
    // Volume part first (delayed invalidations), then every object grant.
    apply_vol_renew_reply(env.src, m->vol, granted);
    for (const msg::DqObjRenewReply& o : m->objects) {
      apply_obj_renew_reply(env.src, o, granted);
    }
    engine_.on_reply(env);
    poke_pending(granted);
    return true;
  }
  if (const auto* m = std::get_if<msg::DqVolObjRenewReply>(&env.body)) {
    // Volume part first: its delayed invalidations must land before the
    // object lease becomes usable (section 3.2).
    apply_vol_renew_reply(env.src, m->vol, granted);
    apply_obj_renew_reply(env.src, m->obj, granted);
    engine_.on_reply(env);
    poke_pending(granted);
    return true;
  }
  return false;
}

void OqsServer::on_crash() {
  // Everything here is a cache; the protocol re-derives it via renewals.
  engine_.cancel_all();
  objects_.clear();
  vol_leases_.clear();
  pending_.clear();
  pending_index_.clear();
  proactive_active_.clear();
}

void OqsServer::on_recover() {
  // Nothing to replay: an OQS replica's store, lease tables, and pending
  // reads are all caches over IQS state.  Cold reads after a restart miss
  // and renew, which is the protocol's ordinary miss path.
  if (m_recoveries_ != nullptr) m_recoveries_->inc();
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

OqsServer::ObjRecord& OqsServer::obj(ObjectId o) {
  ObjRecord& rec = objects_[o.value()];
  if (rec.grants.empty()) rec.grants.resize(cfg_->iqs->size());
  return rec;
}

std::size_t OqsServer::iqs_pos(NodeId i) const {
  const auto pos = cfg_->iqs->position(i);
  DQ_INVARIANT(pos.has_value(), "lease state from a non-IQS node");
  return *pos;
}

// ---------------------------------------------------------------------------
// Condition C
// ---------------------------------------------------------------------------

bool OqsServer::volume_lease_valid(VolumeId v, NodeId i) const {
  const auto pos = cfg_->iqs->position(i);
  const PerIqsVol* vs = pos ? vol_leases_.find(vol_key(v, *pos)) : nullptr;
  return vs != nullptr && vs->expires > local_now();
}

bool OqsServer::object_lease_valid(ObjectId o, NodeId i) const {
  const auto pos = cfg_->iqs->position(i);
  const ObjRecord* rec = objects_.find(o.value());
  if (!pos || rec == nullptr) return false;
  const PerIqsVol* vs =
      vol_leases_.find(vol_key(cfg_->volumes.volume_of(o), *pos));
  return grant_counts(rec->grants[*pos], vs == nullptr ? 0 : vs->epoch,
                      local_now());
}

bool OqsServer::grant_counts(const PerIqsObj& st, msg::Epoch vol_epoch,
                             sim::Time now) {
  return st.valid && st.expires > now &&  // finite object leases expire
         msg::epoch_matches(st.epoch, vol_epoch);
}

bool OqsServer::condition_c(ObjectId o) const {
  const ObjRecord* rec = objects_.find(o.value());
  if (rec == nullptr) return false;  // no grants: no read quorum
  const VolumeId v = cfg_->volumes.volume_of(o);
  const sim::Time now = local_now();
  // Mark each IQS member holding both leases.
  quorum::Positions held;
  for (std::size_t k = 0; k < rec->grants.size(); ++k) {
    const PerIqsVol* vs = vol_leases_.find(vol_key(v, k));
    if (vs == nullptr || vs->expires <= now) continue;
    held.set(k, grant_counts(rec->grants[k], vs->epoch, now));
  }
  return cfg_->iqs->is_quorum(quorum::Kind::kRead, held);
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

void OqsServer::handle_read(NodeId src, RequestId rpc, ObjectId object) {
  m_load_->inc();
  PendingRead pr{src, rpc, object, 0, world_.now()};
  if (condition_c(object)) {
    if (world_.tracing()) {
      world_.trace(self_, "read", "hit obj " + std::to_string(object.value()));
    }
    m_hits_->inc();
    reply_to_read(pr);  // read hit: answer from cache, no IQS traffic
    return;
  }
  if (world_.tracing()) {
    world_.trace(self_, "read", "miss obj " + std::to_string(object.value()));
  }
  m_misses_->inc();
  const std::uint64_t key = next_pending_++;
  pending_.emplace(key, pr);
  pending_index_.emplace(cfg_->volumes.volume_of(object), object, key);
  start_read_machine(key);
}

void OqsServer::reply_to_read(const PendingRead& pr) {
  // Value: highest-clock update received (the record keeps exactly that).
  // Clock: max logicalClock_{o,i} over IQS nodes with valid_{o,i}
  // (Figure 5).
  LogicalClock lc;
  Value value;
  if (const ObjRecord* rec = objects_.find(pr.object.value())) {
    for (const PerIqsObj& st : rec->grants) {
      if (st.valid) lc = std::max(lc, st.clock);
    }
    value = rec->cached.value;
  }
  // dqlint:allow(proto-direct-send): deferred reply tagged with the original
  // rpc id -- the reply path for a handler that no longer holds the envelope.
  world_.send_tagged(self_, pr.src, pr.rpc_id,
                     msg::DqReadReply{pr.object, std::move(value), lc},
                     /*is_reply=*/true);
}

void OqsServer::start_read_machine(std::uint64_t key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  const ObjectId o = it->second.object;
  const VolumeId v = cfg_->volumes.volume_of(o);

  auto completed = std::make_shared<bool>(false);
  const rpc::CallId id = engine_.call_until(
      *cfg_->iqs, quorum::Kind::kRead,
      /*build=*/
      [this, o, v](NodeId i) -> std::optional<msg::Payload> {
        const bool vol_ok = volume_lease_valid(v, i);
        const bool obj_ok = object_lease_valid(o, i);
        if (!vol_ok && !obj_ok) {
          return msg::DqVolObjRenew{v, o, local_now()};
        }
        if (!vol_ok) return msg::DqVolRenew{v, local_now()};
        if (!obj_ok) return msg::DqObjRenew{o, local_now()};
        return std::nullopt;
      },
      /*on_reply=*/[](NodeId, const msg::Payload&) {},
      /*done=*/[this, o] { return condition_c(o); },
      /*on_complete=*/
      [this, key, completed](bool ok) {
        *completed = true;
        finish_read(key, ok);
      },
      cfg_->rpc);
  if (!*completed) {
    if (auto it2 = pending_.find(key); it2 != pending_.end()) {
      it2->second.call = id;
    }
  }
}

void OqsServer::finish_read(std::uint64_t key, bool ok) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  PendingRead pr = it->second;
  pending_.erase(it);
  pending_index_.erase({cfg_->volumes.volume_of(pr.object), pr.object, key});
  if (!ok) return;  // deadline exceeded; the service client's QRPC handles it
  m_h_miss_->observe(sim::to_ms(world_.now() - pr.started));
  reply_to_read(pr);
  if (cfg_->proactive_volume_renewal) {
    maybe_schedule_proactive_renewal(cfg_->volumes.volume_of(pr.object));
  }
}

std::vector<ObjectId> OqsServer::pending_objects() const {
  std::vector<ObjectId> out;
  out.reserve(pending_.size());
  for (const auto& [k, pr] : pending_) out.push_back(pr.object);
  return out;
}

void OqsServer::poke_pending(const Granted& granted) {
  // A reply granted leases: the pending reads it names may now satisfy
  // condition C.  No other read can: time passing and invalidations only
  // make C false.  Engine pokes re-evaluate `done`, in ascending key order
  // (the order the reads arrived), and the call ids are collected first
  // because a completed read leaves pending_.
  std::vector<std::uint64_t> keys;
  for (VolumeId v : granted.volumes) {
    for (auto it = pending_index_.lower_bound({v, ObjectId(0), 0});
         it != pending_index_.end() && std::get<0>(*it) == v; ++it) {
      keys.push_back(std::get<2>(*it));
    }
  }
  for (ObjectId o : granted.objects) {
    for (auto it = pending_index_.lower_bound(
             {cfg_->volumes.volume_of(o), o, 0});
         it != pending_index_.end() && std::get<1>(*it) == o; ++it) {
      keys.push_back(std::get<2>(*it));
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<rpc::CallId> calls;
  calls.reserve(keys.size());
  for (std::uint64_t k : keys) {
    const rpc::CallId c = pending_.at(k).call;
    if (c != 0) calls.push_back(c);
  }
  for (rpc::CallId c : calls) engine_.poke(c);
}

// ---------------------------------------------------------------------------
// State application
// ---------------------------------------------------------------------------

sim::Duration OqsServer::conservative_lease(sim::Duration granted) const {
  if (granted >= sim::kTimeInfinity) return sim::kTimeInfinity;
  return static_cast<sim::Duration>(static_cast<double>(granted) *
                                    (1.0 - cfg_->max_drift));
}

void OqsServer::apply_vol_renew_reply(NodeId i, const msg::DqVolRenewReply& r,
                                      Granted& granted,
                                      std::vector<msg::DqVolRenewAck>*
                                          batch_acks) {
  PerIqsVol& vs = vol_leases_[vol_key(r.volume, iqs_pos(i))];
  // Extending a lease that is still valid, under the same epoch, leaves
  // condition C as it was; opening one or moving the epoch can complete
  // reads on any object of the volume.
  if (vs.expires <= local_now() || msg::epoch_newer(r.epoch, vs.epoch)) {
    granted.volumes.push_back(r.volume);
  }
  // Conservative expiry: from OUR send time t0, shortened by worst-case
  // drift (Figure 5, processVLRenewReply).
  const sim::Duration eff = conservative_lease(r.lease_length);
  const sim::Time exp = eff >= sim::kTimeInfinity ? sim::kTimeInfinity
                                                  : r.requestor_time + eff;
  vs.expires = std::max(vs.expires, exp);
  vs.epoch = msg::epoch_max(vs.epoch, r.epoch);

  LogicalClock max_applied;
  for (const msg::Invalidation& inv : r.delayed) {
    apply_invalidation(i, inv.object, inv.clock);
    max_applied = std::max(max_applied, inv.clock);
  }
  if (!r.delayed.empty()) {
    if (batch_acks != nullptr) {
      batch_acks->push_back({r.volume, max_applied});
    } else {
      // dqlint:allow(proto-direct-send): one-way delayed-invalidation ack;
      // loss is tolerated (the grantor re-sends the queue at next renewal).
      world_.send(self_, i, RequestId(0),
                  msg::DqVolRenewAck{r.volume, max_applied});
    }
  }
}

void OqsServer::apply_obj_renew_reply(NodeId i, const msg::DqObjRenewReply& r,
                                      Granted& granted) {
  granted.objects.push_back(r.object);
  ObjRecord& rec = obj(r.object);
  PerIqsObj& st = rec.grants[iqs_pos(i)];
  st.epoch = msg::epoch_max(st.epoch, r.epoch);
  if (st.clock <= r.clock) {
    st.clock = r.clock;
    st.valid = true;
    // Conservative object-lease expiry, measured from OUR send time
    // (kTimeInfinity when the deployment uses callbacks).
    const sim::Duration eff = conservative_lease(r.lease_length);
    st.expires = eff >= sim::kTimeInfinity
                     ? sim::kTimeInfinity
                     : std::max(st.expires == sim::kTimeInfinity
                                    ? 0
                                    : st.expires,
                                r.requestor_time + eff);
    // Keep value_o at the highest clock seen in any update.
    if (rec.cached.clock < r.clock) {
      rec.cached = VersionedValue{r.value, r.clock};
    }
  }
}

void OqsServer::apply_invalidation(NodeId i, ObjectId o, LogicalClock lc) {
  PerIqsObj& st = obj(o).grants[iqs_pos(i)];
  if (lc > st.clock) {
    st.clock = lc;
    st.valid = false;
  }
}

void OqsServer::handle_inval(const sim::Envelope& env, const msg::DqInval& m) {
  m_load_->inc();
  m_invals_->inc();
  // No pending read to re-check: an invalidation only makes C false.
  apply_invalidation(env.src, m.object, m.clock);
  world_.reply(self_, env, msg::DqInvalAck{m.object, m.clock});
}

// ---------------------------------------------------------------------------
// Proactive volume renewal (ablation; keeps read hits local by renewing
// leases slightly before they expire instead of on the first miss)
// ---------------------------------------------------------------------------

void OqsServer::prefetch(VolumeId v, std::function<void(bool ok)> done) {
  // Fetch from EVERY IQS member: an object written to a write quorum is
  // stored by exactly those members, and condition C needs object grants
  // from a full read quorum -- so only the union of all members' volume
  // contents guarantees hits for everything.  Best effort: a member that
  // stays silent past the deadline just leaves some objects cold.
  if (fetch_all_ == nullptr) {
    fetch_all_ = quorum::ThresholdQuorum::rowa(cfg_->iqs->members());
  }
  rpc::QrpcOptions opts = cfg_->rpc;
  if (opts.deadline == sim::kTimeInfinity) opts.deadline = sim::seconds(8);
  engine_.call(
      *fetch_all_, quorum::Kind::kWrite,  // "write" quorum of ROWA = all
      [this, v](NodeId) -> std::optional<msg::Payload> {
        return msg::DqVolFetch{v, local_now()};
      },
      [](NodeId, const msg::Payload&) {},
      [done = std::move(done)](bool ok) { done(ok); }, opts);
}

void OqsServer::run_batched_renewal_round() {
  // One DqVolRenewBatch per IQS member, covering every volume this node
  // holds (or held) a lease on from that member.  Rounds run every third of
  // a lease, so a lease is refreshed at least two-thirds of a lease before
  // expiry -- comfortably ahead of renewal round trips and drift.
  // Batches go out by IQS position (ascending node id), each listing its
  // volumes in ascending order.
  std::vector<std::pair<std::size_t, VolumeId>> held;
  held.reserve(vol_leases_.size());
  vol_leases_.for_each([&held](std::uint64_t key, const PerIqsVol&) {
    held.emplace_back(key & 0xFFFFFFFFu,
                      VolumeId(static_cast<std::uint32_t>(key >> 32)));
  });
  std::sort(held.begin(), held.end());
  for (std::size_t a = 0; a < held.size();) {
    const std::size_t pos = held[a].first;
    msg::DqVolRenewBatch batch;
    for (; a < held.size() && held[a].first == pos; ++a) {
      batch.renewals.push_back({held[a].second, local_now()});
    }
    // dqlint:allow(proto-direct-send): periodic fire-and-forget renewal
    // batch; replies route through on_message and a lost round is retried
    // by the next timer tick, so QRPC would only duplicate that machinery.
    world_.send(self_, cfg_->iqs->members()[pos], RequestId(0),
                std::move(batch));
  }
  const sim::Duration period = std::max<sim::Duration>(
      conservative_lease(cfg_->lease_length) / 3, sim::milliseconds(1));
  world_.set_timer(self_, period, [this] { run_batched_renewal_round(); });
}

void OqsServer::maybe_schedule_proactive_renewal(VolumeId v) {
  if (cfg_->is_basic()) return;  // infinite leases never need renewal
  if (cfg_->batch_volume_renewals) {
    // The periodic batched loop covers every leased volume; start it once.
    if (proactive_active_.insert(VolumeId(UINT32_MAX)).second) {
      run_batched_renewal_round();
    }
    return;
  }
  if (!proactive_active_.insert(v).second) return;
  // Renew at 3/4 of the (conservative) lease length, repeatedly.
  const sim::Duration period =
      std::max<sim::Duration>(conservative_lease(cfg_->lease_length) * 3 / 4,
                              sim::milliseconds(1));
  world_.set_timer(self_, period, [this, v, period] {
    proactive_active_.erase(v);
    engine_.call_until(
        *cfg_->iqs, quorum::Kind::kRead,
        [this, v](NodeId i) -> std::optional<msg::Payload> {
          // Renew from everyone we will count on; skip nodes whose lease is
          // still comfortably fresh (more than half the lease remaining).
          const PerIqsVol* vs = vol_leases_.find(vol_key(v, iqs_pos(i)));
          const sim::Time fresh_until =
              local_now() + conservative_lease(cfg_->lease_length) / 2;
          if (vs != nullptr && vs->expires > fresh_until) {
            return std::nullopt;
          }
          return msg::DqVolRenew{v, local_now()};
        },
        [](NodeId, const msg::Payload&) {},
        [this, v] {
          const std::vector<NodeId>& members = cfg_->iqs->members();
          quorum::Positions held;
          for (std::size_t k = 0; k < members.size(); ++k) {
            held.set(k, volume_lease_valid(v, members[k]));
          }
          return cfg_->iqs->is_quorum(quorum::Kind::kRead, held);
        },
        [this, v](bool) { maybe_schedule_proactive_renewal(v); },
        cfg_->rpc);
  });
}

}  // namespace dq::core
