// Application client: the closed-loop request generator of section 4.1
// ("the application client sends the next request only after it receives
// the response of the current request").
//
// Two access modes, matching how the paper's curves behave:
//   * kViaFrontEnd -- the request is routed to the closest edge server with
//     probability `locality`, otherwise to a uniformly random other server
//     (the locality experiments of section 4.1).  Used by the protocols
//     that exploit edge locality: DQVL, ROWA, ROWA-Async.
//   * kDirect -- the client embeds the protocol's service client and talks
//     to the replicas itself over WAN.  Used for majority and
//     primary/backup, whose response times the paper shows to be
//     insensitive to access locality.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "msg/wire.h"
#include "protocols/service_client.h"
#include "sim/world.h"
#include "workload/history.h"

namespace dq::workload {

class AppClient final : public sim::Actor {
 public:
  struct Params {
    double write_ratio = 0.05;
    // Burstiness: probability that a request repeats the previous request's
    // kind instead of drawing fresh from write_ratio.  Models the paper's
    // target workload property (b): "reads tend to be followed by other
    // reads and writes tend to be followed by other writes" (section 1).
    // The stationary write fraction remains write_ratio for any burstiness.
    double burstiness = 0.0;
    double locality = 1.0;           // via-front-end mode only
    std::size_t total_requests = 200;
    sim::Duration think_time = 0;
    // Per-operation deadline; exceeded => the op is recorded as rejected.
    sim::Duration op_deadline = sim::kTimeInfinity;
    // Object selector; default: the client's own "profile" object.
    std::function<ObjectId(Rng&)> choose_object;
  };

  // Via-front-end mode.
  AppClient(Params p) : params_(std::move(p)) {}
  // Direct mode: the client owns a protocol service client.
  AppClient(Params p, std::shared_ptr<protocols::ServiceClient> direct)
      : params_(std::move(p)), direct_(std::move(direct)) {}

  // Begin issuing requests.  Call after World::attach.
  void start();

  void on_message(const sim::Envelope& env) override;

  [[nodiscard]] bool done() const {
    return issued_ >= params_.total_requests && !inflight_;
  }
  [[nodiscard]] const History& history() const { return history_; }
  [[nodiscard]] std::uint64_t rejected_reads() const {
    return rejected_reads_;
  }
  [[nodiscard]] std::uint64_t rejected_writes() const {
    return rejected_writes_;
  }

 private:
  void issue_next();
  void complete(bool ok, Value value, LogicalClock lc);
  void arm_retransmit(NodeId fe, msg::AppRequest req, std::uint64_t token,
                      sim::Duration wait);
  [[nodiscard]] NodeId pick_front_end();
  [[nodiscard]] ObjectId pick_object();

  Params params_;
  std::shared_ptr<protocols::ServiceClient> direct_;

  std::size_t issued_ = 0;
  std::uint64_t write_seq_ = 0;
  bool last_was_write_ = false;
  bool inflight_ = false;
  std::uint64_t op_token_ = 0;  // guards late replies after a deadline
  OpRecord current_;
  RequestId current_rpc_;
  sim::TimerToken deadline_timer_;
  sim::TimerToken retransmit_timer_;

  History history_;
  std::uint64_t rejected_reads_ = 0, rejected_writes_ = 0;
};

}  // namespace dq::workload
