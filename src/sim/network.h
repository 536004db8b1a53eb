// The simulated network: topology-derived delays, loss, duplication,
// partitions, and node reachability.  Message accounting lives on the send
// path (World::send_tagged): the net.* metrics counters plus one per-type
// count per partition.
//
// This is the substitution for the paper's physical testbed (DESIGN.md
// section 2): the paper configures a LAN delay of 8 ms between an
// application client and its closest edge server, 86 ms between a client and
// other edge servers, and 80 ms among edge servers -- all round trip.  The
// topology below stores one-way delays (half the round trip) so that every
// request/reply pair reproduces the paper's RTTs.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "msg/wire.h"
#include "sim/time.h"

namespace dq::sim {

// A message in flight.  `is_reply` distinguishes requests from replies
// carrying the same rpc id: a node that is both QRPC caller and callee (e.g.
// a front end reading its own colocated replica) would otherwise mistake its
// own loopback *request* for a reply.
struct Envelope {
  NodeId src;
  NodeId dst;
  RequestId rpc_id;  // matches replies to QRPC calls; 0 for one-way traffic
  msg::Payload body;
  bool is_reply = false;
};

// The kind of link a (src, dst) pair crosses.  Delay assignment and the
// per-link metrics counters share this classification.
enum class LinkClass : std::uint8_t {
  kLoopback,      // a node talking to itself (free)
  kClientHome,    // application client <-> its closest edge server
  kClientRemote,  // application client <-> any other edge server
  kServerServer,  // edge server <-> edge server (WAN)
};
[[nodiscard]] const char* link_class_name(LinkClass c);

// Static description of who is where.  Node ids are dense: servers occupy
// [0, num_servers) and application clients [num_servers, num_servers +
// num_clients).  Each client has a home (closest) server.
class Topology {
 public:
  struct Params {
    std::size_t num_servers = 9;
    std::size_t num_clients = 3;
    // One-way delays; defaults reproduce the paper's 8/86/80 ms RTTs.
    Duration client_to_home = milliseconds(4);
    Duration client_to_remote = milliseconds(43);
    Duration server_to_server = milliseconds(40);
    // Constant per-request processing delay applied at a server when it
    // handles a client-facing request ("we assume a constant processing
    // delay on every edge server", section 4.1).
    Duration processing_delay = milliseconds(1);
    // Uniform jitter applied multiplicatively to each delay: the realized
    // delay is d * (1 + U[0, jitter]).  Jitter > 0 yields message
    // reordering.
    double jitter = 0.0;
  };

  explicit Topology(Params p);

  [[nodiscard]] std::size_t num_servers() const { return p_.num_servers; }
  [[nodiscard]] std::size_t num_clients() const { return p_.num_clients; }
  [[nodiscard]] std::size_t num_nodes() const {
    return p_.num_servers + p_.num_clients;
  }

  [[nodiscard]] bool is_server(NodeId n) const {
    return n.value() < p_.num_servers;
  }
  [[nodiscard]] bool is_client(NodeId n) const {
    return !is_server(n) && n.value() < num_nodes();
  }

  [[nodiscard]] NodeId server(std::size_t i) const {
    return NodeId(static_cast<std::uint32_t>(i));
  }
  [[nodiscard]] NodeId client(std::size_t i) const {
    return NodeId(static_cast<std::uint32_t>(p_.num_servers + i));
  }
  // Cached at construction (node ids are dense and the counts are fixed);
  // these sit on quorum-assembly paths, so rebuilding them per call was a
  // measurable allocation source.
  [[nodiscard]] const std::vector<NodeId>& servers() const { return servers_; }
  [[nodiscard]] const std::vector<NodeId>& clients() const { return clients_; }

  // The client's closest edge server.  Default assignment: client i is
  // homed at server (i mod num_servers); override with set_home.
  [[nodiscard]] NodeId home_of(NodeId c) const;
  void set_home(NodeId client, NodeId server);

  [[nodiscard]] LinkClass link_class(NodeId src, NodeId dst) const;
  [[nodiscard]] Duration one_way_delay(NodeId src, NodeId dst, Rng& rng) const;
  // Same delay model when the caller has already classified the link (the
  // send path classifies once for the per-link metrics and reuses it here).
  [[nodiscard]] Duration one_way_delay(LinkClass link, Rng& rng) const;
  // No copy of a message between a client and a server is delivered later
  // than this after it departs (the longer client link at full jitter).
  [[nodiscard]] Duration max_client_delay() const;
  [[nodiscard]] Duration processing_delay() const {
    return p_.processing_delay;
  }
  [[nodiscard]] const Params& params() const { return p_; }

 private:
  Params p_;
  std::vector<NodeId> home_;  // per client index
  std::vector<NodeId> servers_;
  std::vector<NodeId> clients_;
};

// Mutable fault state: per-node reachability, network partitions,
// probabilistic loss/duplication.
class FaultPlane {
 public:
  explicit FaultPlane(std::size_t num_nodes) : group_(num_nodes, 0),
                                               up_(num_nodes, true) {}

  // Node unreachability (the paper's failure unit: "node failures (including
  // server crashes and network failures)").  A down node neither sends nor
  // receives.
  void set_up(NodeId n, bool up) { up_.at(n.value()) = up; }
  [[nodiscard]] bool is_up(NodeId n) const { return up_.at(n.value()); }

  // Partition the network into groups; messages cross groups only if both
  // endpoints share a group id.  heal() restores full connectivity.
  void set_group(NodeId n, int group) { group_.at(n.value()) = group; }
  void heal() { std::fill(group_.begin(), group_.end(), 0); }

  void set_loss_probability(double p) { loss_ = p; }
  void set_duplication_probability(double p) { dup_ = p; }
  [[nodiscard]] double loss_probability() const { return loss_; }
  [[nodiscard]] double duplication_probability() const { return dup_; }

  [[nodiscard]] bool reachable(NodeId src, NodeId dst) const {
    return is_up(src) && is_up(dst) &&
           group_.at(src.value()) == group_.at(dst.value());
  }

 private:
  std::vector<int> group_;
  std::vector<bool> up_;
  double loss_ = 0.0;
  double dup_ = 0.0;
};

}  // namespace dq::sim
