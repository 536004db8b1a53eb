// Front end: the service-client role of an edge server.
//
// Receives AppRequest from application clients, executes the operation
// through the protocol's ServiceClient, and returns an AppReply.  The paper
// calls this the "front end node ... acting as a service client to the
// dual-quorum storage system" (section 2).
//
// Execution is at-most-once per (source, rpc id): application clients
// retransmit a lost request under the same rpc id, and re-executing a write
// would mint a second logical clock for it.  Each source node has a session
// holding its ack floor and one entry per request at or above it: in flight,
// or completed with the reply cached for retransmissions.  Every request
// carries the sender's floor
// (AppRequest::settled_below: all its lower rpc ids are settled), which
// garbage-collects the cache the way at-most-once RPC does (Birrell &
// Nelson 1984; RIFL, Lee et al., SOSP 2015): the table follows the
// requests still live, not every request ever served.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "msg/wire.h"
#include "protocols/service_client.h"
#include "sim/world.h"

namespace dq::workload {

class FrontEnd {
 public:
  FrontEnd(sim::World& world, NodeId self,
           std::shared_ptr<protocols::ServiceClient> client)
      : world_(world), self_(self), client_(std::move(client)) {}

  bool on_message(const sim::Envelope& env) {
    // Give the embedded service client first claim on replies addressed to
    // this node.
    if (client_->on_message(env)) return true;
    const auto* req = std::get_if<msg::AppRequest>(&env.body);
    if (req == nullptr) return false;

    // A request raises its sender's floor; requests below it are never
    // sent again, so their entries go.  A request below the floor is a
    // stale duplicate (network duplication, or a retransmission its
    // sender's next request overtook): the sender has settled it, so it
    // draws no reply and no execution.
    Session& s = sessions_[env.src.value()];
    if (req->settled_below > s.floor) {
      s.floor = req->settled_below;
      s.ops.erase(s.ops.begin(), s.ops.lower_bound(s.floor));
    }
    const RequestId rpc = env.rpc_id;
    if (rpc < s.floor) return true;
    // In-flight duplicates are dropped (the eventual reply answers both);
    // completed ones get the cached reply resent.
    const auto [it, fresh] = s.ops.try_emplace(rpc);
    if (!fresh) {
      if (it->second) {
        world_.send_tagged(self_, env.src, rpc, *it->second,
                           /*is_reply=*/true);
      }
      return true;
    }

    const NodeId src = env.src;
    if (req->op == msg::OpKind::kRead) {
      client_->read(req->object, [this, src, rpc, o = req->object](
                                     bool ok, VersionedValue vv) {
        finish(src, rpc,
               msg::AppReply{ok, o, std::move(vv.value), vv.clock});
      });
    } else {
      client_->write(req->object, req->value,
                     [this, src, rpc, o = req->object](bool ok,
                                                       LogicalClock lc) {
                       finish(src, rpc, msg::AppReply{ok, o, Value{}, lc});
                     });
    }
    return true;
  }

  // Sessions are volatile: after a restart a retransmission re-executes.
  void on_crash() {
    client_->cancel_all();
    sessions_.clear();
  }

  // Replies held for retransmissions, over every session.
  [[nodiscard]] std::size_t cached_replies() const {
    std::size_t n = 0;
    for (const auto& [src, s] : sessions_) {
      for (const auto& [rpc, reply] : s.ops) n += reply.has_value();
    }
    return n;
  }

 private:
  struct Session {
    RequestId floor;  // every rpc id below it is settled
    // Requests at or above the floor: empty while in flight, then the reply.
    std::map<RequestId, std::optional<msg::AppReply>> ops;
  };

  void finish(NodeId src, RequestId rpc, msg::AppReply reply) {
    // A request the floor passed while it ran is settled: its reply goes
    // out (the sender may still be waiting on a slow op) but is not kept.
    Session& s = sessions_[src.value()];
    if (auto it = s.ops.find(rpc); it != s.ops.end()) it->second = reply;
    world_.send_tagged(self_, src, rpc, std::move(reply), /*is_reply=*/true);
  }

  sim::World& world_;
  NodeId self_;
  std::shared_ptr<protocols::ServiceClient> client_;
  // Keyed by source node id; ordered, as partition-owned state must be.
  std::map<std::uint32_t, Session> sessions_;
};

}  // namespace dq::workload
