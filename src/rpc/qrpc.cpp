#include "rpc/qrpc.h"

#include <utility>

#include "common/assert.h"

namespace dq::rpc {

CallId QrpcEngine::call(const quorum::QuorumSystem& system, quorum::Kind kind,
                        BuildRequest build, OnReply on_reply,
                        OnComplete on_complete, QrpcOptions opts) {
  // Classic form: done == "a quorum has responded".
  const CallId id = next_call_;  // call_until will consume this id
  return call_until(
      system, kind, std::move(build), std::move(on_reply),
      [this, id, &system, kind] {
        auto it = calls_.find(id);
        if (it == calls_.end()) return true;
        return system.is_quorum(kind, it->second.responded);
      },
      std::move(on_complete), opts);
}

CallId QrpcEngine::call_until(const quorum::QuorumSystem& system,
                              quorum::Kind kind, BuildRequest build,
                              OnReply on_reply, Done done,
                              OnComplete on_complete, QrpcOptions opts) {
  const CallId id = next_call_++;
  Call c;
  c.rpc_id = world_.fresh_rpc_id();
  c.system = &system;
  c.kind = kind;
  c.build = std::move(build);
  c.reply_cb = std::move(on_reply);
  c.done = std::move(done);
  c.complete_cb = std::move(on_complete);
  c.opts = opts;
  c.cur_timeout = opts.initial_timeout;
  if (opts.deadline != sim::kTimeInfinity) {
    c.deadline_at = world_.now() + opts.deadline;
  }
  by_rpc_id_[c.rpc_id.value()] = id;
  calls_.emplace(id, std::move(c));
  m_calls_->inc();
  m_inflight_->add(+1);

  // The condition may already hold (e.g. every OQS copy already invalid).
  if (calls_.at(id).done()) {
    finish(id, true);
    return id;
  }
  transmit_round(id);
  arm_retry(id);
  return id;
}

void QrpcEngine::transmit_round(CallId id) {
  auto it = calls_.find(id);
  if (it == calls_.end()) return;
  Call& c = it->second;
  m_rounds_->inc();
  // Fresh random quorum each round, local node preferred (section 2).
  const auto targets = c.system->pick(c.kind, world_.rng(), self_);
  for (NodeId t : targets) {
    if (auto payload = c.build(t)) {
      world_.send(self_, t, c.rpc_id, *std::move(payload));
    }
  }
}

void QrpcEngine::arm_retry(CallId id) {
  auto it = calls_.find(id);
  if (it == calls_.end()) return;
  Call& c = it->second;
  if (world_.now() >= c.deadline_at) {
    finish(id, false);
    return;
  }
  sim::Duration wait = c.cur_timeout;
  if (world_.now() + wait > c.deadline_at) wait = c.deadline_at - world_.now();
  c.retry_timer = world_.set_timer(self_, wait, [this, id] {
    auto it2 = calls_.find(id);
    if (it2 == calls_.end()) return;
    Call& c2 = it2->second;
    if (c2.done()) {  // external state may have completed us
      finish(id, true);
      return;
    }
    if (world_.now() >= c2.deadline_at) {
      finish(id, false);
      return;
    }
    c2.cur_timeout = std::min(
        static_cast<sim::Duration>(static_cast<double>(c2.cur_timeout) *
                                   c2.opts.backoff),
        c2.opts.max_timeout);
    m_retries_->inc();
    transmit_round(id);
    arm_retry(id);
  });
}

bool QrpcEngine::on_reply(const sim::Envelope& env) {
  if (!env.is_reply) return false;  // never consume a loopback request
  auto rid = by_rpc_id_.find(env.rpc_id.value());
  if (rid == by_rpc_id_.end()) return false;
  const CallId id = rid->second;
  auto it = calls_.find(id);
  if (it == calls_.end()) return false;
  Call& c = it->second;
  // Duplicate replies from the same node are delivered to the callback only
  // once per node: every protocol reply in this codebase is idempotent and
  // later replies from the same node carry no more information for quorum
  // accounting.  (State-updating callbacks apply max() merges anyway.)
  const auto pos = c.system->position(env.src);
  DQ_INVARIANT(pos.has_value(), "QRPC reply from a non-member");
  if (c.responded.test(*pos)) return true;
  c.responded.set(*pos);
  c.reply_cb(env.src, env.body);
  check_done(id);
  return true;
}

void QrpcEngine::poke(CallId id) { check_done(id); }

void QrpcEngine::check_done(CallId id) {
  auto it = calls_.find(id);
  if (it == calls_.end()) return;
  if (it->second.done()) finish(id, true);
}

void QrpcEngine::finish(CallId id, bool success) {
  auto it = calls_.find(id);
  if (it == calls_.end()) return;
  // Move the call out before invoking the completion: the continuation
  // frequently starts the next QRPC phase and may recurse into the engine.
  Call c = std::move(it->second);
  c.retry_timer.cancel();
  calls_.erase(it);
  by_rpc_id_.erase(c.rpc_id.value());
  m_inflight_->add(-1);
  if (!success) m_timeouts_->inc();
  if (c.complete_cb) c.complete_cb(success);
}

void QrpcEngine::cancel(CallId id) {
  auto it = calls_.find(id);
  if (it == calls_.end()) return;
  it->second.retry_timer.cancel();
  by_rpc_id_.erase(it->second.rpc_id.value());
  calls_.erase(it);
  m_inflight_->add(-1);
}

void QrpcEngine::cancel_all() {
  for (auto& [id, c] : calls_) c.retry_timer.cancel();
  m_inflight_->add(-static_cast<std::int64_t>(calls_.size()));
  calls_.clear();
  by_rpc_id_.clear();
}

}  // namespace dq::rpc
