#include "workload/app_client.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/assert.h"

namespace dq::workload {

void AppClient::start() { issue_next(); }

NodeId AppClient::pick_front_end() {
  const auto& topo = world().topology();
  const NodeId home = topo.home_of(id());
  if (world().rng().chance(params_.locality)) return home;
  // Route to a uniformly random *other* server (redirection miss /
  // client mobility, section 4.1).
  const std::size_t n = topo.num_servers();
  if (n <= 1) return home;
  while (true) {
    const NodeId s = topo.server(world().rng().below(n));
    if (s != home) return s;
  }
}

ObjectId AppClient::pick_object() {
  if (params_.choose_object) return params_.choose_object(world().rng());
  // Default: this client's own profile object (TPC-W per-customer profile).
  return ObjectId(id().value());
}

void AppClient::issue_next() {
  if (issued_ >= params_.total_requests) return;
  ++issued_;
  inflight_ = true;
  ++op_token_;
  const std::uint64_t token = op_token_;

  bool is_write;
  if (issued_ > 1 && world().rng().chance(params_.burstiness)) {
    is_write = last_was_write_;  // stay in the current burst
  } else {
    is_write = world().rng().chance(params_.write_ratio);
  }
  last_was_write_ = is_write;
  current_ = OpRecord{};
  current_.client = ClientId(id().value());
  current_.kind = is_write ? msg::OpKind::kWrite : msg::OpKind::kRead;
  current_.object = pick_object();
  current_.invoked = world().now();
  if (is_write) {
    current_.value = "c" + std::to_string(id().value()) + "-" +
                     std::to_string(++write_seq_);
  }

  if (params_.op_deadline < sim::kTimeInfinity) {
    deadline_timer_ = world().set_timer(id(), params_.op_deadline,
                                        [this, token] {
                                          if (token != op_token_) return;
                                          complete(false, {}, {});
                                        });
  }

  if (direct_ != nullptr) {
    if (is_write) {
      direct_->write(current_.object, current_.value,
                     [this, token](bool ok, LogicalClock lc) {
                       if (token != op_token_) return;
                       complete(ok, current_.value, lc);
                     });
    } else {
      direct_->read(current_.object,
                    [this, token](bool ok, VersionedValue vv) {
                      if (token != op_token_) return;
                      complete(ok, std::move(vv.value), vv.clock);
                    });
    }
    return;
  }

  // Via front end.  Retransmit under the same rpc id until the reply lands
  // (the front end executes at-most-once and re-sends cached replies), so a
  // lost request or reply does not wedge the closed loop.  One op is in
  // flight at a time and the last one has completed or passed its
  // deadline, so every earlier rpc id is settled.
  const NodeId fe = pick_front_end();
  current_rpc_ = world().fresh_rpc_id();
  msg::AppRequest req;
  req.op = current_.kind;
  req.object = current_.object;
  req.value = current_.value;
  req.settled_below = current_rpc_;
  world().send(id(), fe, current_rpc_, req);
  arm_retransmit(fe, std::move(req), token, sim::milliseconds(500));
}

void AppClient::arm_retransmit(NodeId fe, msg::AppRequest req,
                               std::uint64_t token, sim::Duration wait) {
  retransmit_timer_ = world().set_timer(id(), wait, [this, fe, req, token,
                                                     wait] {
    if (token != op_token_) return;  // op already completed or timed out
    world().send(id(), fe, current_rpc_, req);
    const sim::Duration next =
        std::min<sim::Duration>(wait * 2, sim::seconds(8));
    arm_retransmit(fe, req, token, next);
  });
}

void AppClient::on_message(const sim::Envelope& env) {
  if (direct_ != nullptr && direct_->on_message(env)) return;
  const auto* rep = std::get_if<msg::AppReply>(&env.body);
  if (rep == nullptr) return;
  if (!inflight_ || env.rpc_id != current_rpc_) return;  // late/duplicate
  complete(rep->ok, rep->value, rep->clock);
}

void AppClient::complete(bool ok, Value value, LogicalClock lc) {
  DQ_INVARIANT(inflight_, "completion without an in-flight op");
  inflight_ = false;
  ++op_token_;  // retire deadline timer and any straggler callbacks
  deadline_timer_.cancel();
  retransmit_timer_.cancel();

  current_.ok = ok;
  current_.completed = world().now();
  if (current_.kind == msg::OpKind::kRead) {
    current_.value = std::move(value);
    current_.clock = lc;
  } else {
    current_.clock = lc;  // value already holds what we wrote
  }
  history_.record(current_);

  if (!ok) {
    ++(current_.kind == msg::OpKind::kRead ? rejected_reads_
                                           : rejected_writes_);
  }

  if (params_.think_time > 0) {
    world().set_timer(id(), params_.think_time, [this] { issue_next(); });
  } else {
    issue_next();
  }
}

}  // namespace dq::workload
