#include "rpc/qrpc.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace dq::rpc {

CallId QrpcEngine::call(const quorum::QuorumSystem& system, quorum::Kind kind,
                        BuildRequest build, OnReply on_reply,
                        OnComplete on_complete, QrpcOptions opts) {
  // Classic form: no `done`, so the call completes once a quorum replied.
  return call_until(system, kind, std::move(build), std::move(on_reply),
                    Done{}, std::move(on_complete), opts);
}

CallId QrpcEngine::call_until(const quorum::QuorumSystem& system,
                              quorum::Kind kind, BuildRequest build,
                              OnReply on_reply, Done done,
                              OnComplete on_complete, QrpcOptions opts) {
  std::uint32_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (num_slots_ % kChunkCalls == 0) {
      chunks_.push_back(std::make_unique<Call[]>(kChunkCalls));
    }
    slot = num_slots_++;
  }
  Call& c = at(slot);
  const CallId id = id_of(c, slot);
  c.live = true;
  c.rpc_id = world_.fresh_rpc_id();
  c.system = &system;
  c.kind = kind;
  c.build = std::move(build);
  c.reply_cb = std::move(on_reply);
  c.done = std::move(done);
  c.complete_cb = std::move(on_complete);
  c.cur_timeout = kInitialTimeout;
  if (opts.deadline != sim::kTimeInfinity) {
    c.deadline_at = world_.now() + opts.deadline;
  }
  slot_of_rpc_.insert(c.rpc_id.value(), slot);
  ++live_;
  m_calls_->inc();
  m_inflight_->add(+1);

  // The condition may already hold (e.g. every OQS copy already invalid).
  if (satisfied(c)) {
    finish(id, true);
    return 0;
  }
  transmit_round(id);
  arm_retry(id);
  return id;
}

QrpcEngine::Call* QrpcEngine::find(CallId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= num_slots_) return nullptr;
  Call& c = at(slot);
  return c.live && c.gen == static_cast<std::uint32_t>(id >> 32) ? &c
                                                                  : nullptr;
}

void QrpcEngine::transmit_round(CallId id) {
  Call* c = find(id);
  if (c == nullptr) return;
  m_rounds_->inc();
  // Fresh random quorum each round, local node preferred (section 2).
  const quorum::Pick targets = c->system->pick(c->kind, world_.rng(), self_);
  for (NodeId t : targets) {
    if (auto payload = c->build(t)) {
      world_.send(self_, t, c->rpc_id, *std::move(payload));
    }
  }
}

void QrpcEngine::arm_retry(CallId id) {
  Call* c = find(id);
  if (c == nullptr) return;
  if (world_.now() >= c->deadline_at) {
    finish(id, false);
    return;
  }
  sim::Duration wait = c->cur_timeout;
  if (world_.now() + wait > c->deadline_at) {
    wait = c->deadline_at - world_.now();
  }
  c->retry_timer =
      world_.set_timer(self_, wait, [this, id] { on_retry_timer(id); });
}

void QrpcEngine::on_retry_timer(CallId id) {
  Call* c = find(id);
  if (c == nullptr) return;
  if (satisfied(*c)) {  // external state may have completed us
    finish(id, true);
    return;
  }
  if (world_.now() >= c->deadline_at) {
    finish(id, false);
    return;
  }
  c->cur_timeout = std::min(
      static_cast<sim::Duration>(static_cast<double>(c->cur_timeout) *
                                 kBackoff),
      kMaxTimeout);
  m_retries_->inc();
  transmit_round(id);
  arm_retry(id);
}

bool QrpcEngine::on_reply(const sim::Envelope& env) {
  if (!env.is_reply) return false;  // never consume a loopback request
  const std::uint32_t slot = slot_of_rpc_.find(env.rpc_id.value());
  if (slot == FlatIndex::kNone) return false;
  Call& c = at(slot);
  // Duplicate replies from the same node are delivered to the callback only
  // once per node: every protocol reply in this codebase is idempotent and
  // later replies from the same node carry no more information for quorum
  // accounting.  (State-updating callbacks apply max() merges anyway.)
  const auto pos = c.system->position(env.src);
  DQ_INVARIANT(pos.has_value(), "QRPC reply from a non-member");
  if (c.responded.test(*pos)) return true;
  c.responded.set(*pos);
  const CallId id = id_of(c, slot);
  c.reply_cb(env.src, env.body);
  check_done(id);
  return true;
}

void QrpcEngine::poke(CallId id) { check_done(id); }

void QrpcEngine::check_done(CallId id) {
  Call* c = find(id);
  if (c != nullptr && satisfied(*c)) finish(id, true);
}

void QrpcEngine::finish(CallId id, bool success) {
  Call* c = find(id);
  if (c == nullptr) return;
  // Move the completion out and free the slot before invoking it: the
  // continuation frequently starts the next QRPC phase, which may reuse it.
  OnComplete complete = std::move(c->complete_cb);
  release(static_cast<std::uint32_t>(id));
  if (!success) m_timeouts_->inc();
  if (complete) complete(success);
}

void QrpcEngine::cancel(CallId id) {
  if (find(id) == nullptr) return;
  release(static_cast<std::uint32_t>(id));
}

void QrpcEngine::cancel_all() {
  for (std::uint32_t slot = 0; slot < num_slots_; ++slot) {
    if (at(slot).live) release(slot);
  }
}

void QrpcEngine::release(std::uint32_t slot) {
  Call& c = at(slot);
  c.retry_timer.cancel();
  slot_of_rpc_.erase(c.rpc_id.value());
  std::uint32_t gen = c.gen + 1;
  if (gen == 0) gen = 1;  // keep every CallId non-zero
  c = Call{};
  c.gen = gen;
  free_slots_.push_back(slot);
  --live_;
  m_inflight_->add(-1);
}

}  // namespace dq::rpc
