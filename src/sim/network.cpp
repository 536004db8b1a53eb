#include "sim/network.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace dq::sim {

Topology::Topology(Params p) : p_(p) {
  DQ_INVARIANT(p_.num_servers > 0, "topology needs at least one server");
  home_.resize(p_.num_clients);
  for (std::size_t i = 0; i < p_.num_clients; ++i) {
    home_[i] = server(i % p_.num_servers);
  }
  servers_.reserve(p_.num_servers);
  for (std::size_t i = 0; i < p_.num_servers; ++i) {
    servers_.push_back(server(i));
  }
  clients_.reserve(p_.num_clients);
  for (std::size_t i = 0; i < p_.num_clients; ++i) {
    clients_.push_back(client(i));
  }
}

NodeId Topology::home_of(NodeId c) const {
  DQ_INVARIANT(is_client(c), "home_of takes a client id");
  return home_.at(c.value() - p_.num_servers);
}

void Topology::set_home(NodeId client_id, NodeId server_id) {
  DQ_INVARIANT(is_client(client_id) && is_server(server_id),
               "set_home(client, server)");
  home_.at(client_id.value() - p_.num_servers) = server_id;
}

const char* link_class_name(LinkClass c) {
  switch (c) {
    case LinkClass::kLoopback: return "loopback";
    case LinkClass::kClientHome: return "client_home";
    case LinkClass::kClientRemote: return "client_remote";
    case LinkClass::kServerServer: return "server_server";
  }
  return "?";
}

LinkClass Topology::link_class(NodeId src, NodeId dst) const {
  if (src == dst) return LinkClass::kLoopback;
  if (is_server(src) && is_server(dst)) return LinkClass::kServerServer;
  // Exactly one endpoint is a client (clients never talk to each other).
  const NodeId c = is_client(src) ? src : dst;
  const NodeId s = is_client(src) ? dst : src;
  DQ_INVARIANT(is_server(s), "client-to-client traffic is not modelled");
  return home_of(c) == s ? LinkClass::kClientHome : LinkClass::kClientRemote;
}

Duration Topology::max_client_delay() const {
  const Duration base = std::max(p_.client_to_home, p_.client_to_remote);
  return base + static_cast<Duration>(
                    std::ceil(static_cast<double>(base) * p_.jitter));
}

Duration Topology::one_way_delay(NodeId src, NodeId dst, Rng& rng) const {
  return one_way_delay(link_class(src, dst), rng);
}

Duration Topology::one_way_delay(LinkClass link, Rng& rng) const {
  Duration base = 0;
  switch (link) {
    case LinkClass::kLoopback:
      base = 0;  // a node talking to itself costs nothing on the wire
      break;
    case LinkClass::kServerServer:
      base = p_.server_to_server;
      break;
    case LinkClass::kClientHome:
      base = p_.client_to_home;
      break;
    case LinkClass::kClientRemote:
      base = p_.client_to_remote;
      break;
  }
  if (p_.jitter > 0.0 && base > 0) {
    base += static_cast<Duration>(static_cast<double>(base) * p_.jitter *
                                  rng.uniform());
  }
  return base;
}

}  // namespace dq::sim
