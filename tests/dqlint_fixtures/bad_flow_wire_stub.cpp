// flow-wire-stub (wire.cpp variant): Pong has no row in the wire-type
// table, so nothing names or sizes the alternative.
#include "msg/wire.h"

namespace dq::msg {
namespace {

struct Row {
  const char* name;
  std::size_t size;
};

struct Describe {
  Row operator()(const Ping&) const { return {"Ping", 16}; }
};

}  // namespace

std::size_t approximate_size(const Payload& p) {
  return std::visit(Describe{}, p).size;
}

}  // namespace dq::msg
