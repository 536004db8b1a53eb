// Wire-impl fixture (stands in for src/msg/wire.cpp): the wire-type table
// carries one operator()(const T&) row per payload, so neither alternative
// is a wire stub.
#include "msg/wire.h"

namespace dq::msg {
namespace {

struct Row {
  const char* name;
  std::size_t size;
};

struct Describe {
  Row operator()(const Ping&) const { return {"Ping", 16}; }
  Row operator()(const Pong&) const { return {"Pong", 16}; }
};

}  // namespace

std::size_t approximate_size(const Payload& p) {
  return std::visit(Describe{}, p).size;
}

}  // namespace dq::msg
