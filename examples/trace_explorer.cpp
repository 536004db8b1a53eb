// Trace explorer: watch the protocol make decisions, message by message.
//
// Runs a small DQVL scenario with tracing enabled and prints the protocol
// event stream -- the tool to reach for when the numbers from the benches
// raise a "but why?" question.
//
//   $ ./trace_explorer
#include <cstdio>
#include <iostream>

#include "protocols/dq_client.h"
#include "workload/experiment.h"

using namespace dq;
using namespace dq::workload;

int main() {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.lease_length = sim::seconds(2);
  p.requests_per_client = 0;
  Deployment dep(p);
  auto& w = dep.world();
  w.tracer().enable();

  auto reader = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(0), dep.dq_config());
  auto writer = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(1), dep.dq_config());
  dep.server_node(0).add_handler(
      [&](const sim::Envelope& e) { return reader->on_message(e); });
  dep.server_node(1).add_handler(
      [&](const sim::Envelope& e) { return writer->on_message(e); });

  auto spin = [&](bool& f) {
    while (!f) w.run_for(sim::milliseconds(10));
  };
  auto wr = [&](ObjectId o, const char* v) {
    bool done = false;
    writer->write(o, v, [&](bool, LogicalClock) { done = true; });
    spin(done);
  };
  auto rd = [&](ObjectId o) {
    bool done = false;
    reader->read(o, [&](bool, VersionedValue) { done = true; });
    spin(done);
  };

  std::printf("== scenario: write, read x2, overwrite, partition, "
              "lease-expiry write ==\n\n");
  wr(ObjectId(7), "v1");   // cold write: suppressed
  rd(ObjectId(7));         // miss: renewals
  rd(ObjectId(7));         // hit
  wr(ObjectId(7), "v2");   // write-through: invalidations
  w.set_up(w.topology().server(0), false);
  wr(ObjectId(7), "v3");   // blocked on server 0's lease; delayed inval
  w.set_up(w.topology().server(0), true);
  rd(ObjectId(7));         // renewal delivers the delayed invalidation

  std::printf("protocol decisions (read/write/lease events):\n");
  dep.world().tracer().dump(std::cout, "read");
  dep.world().tracer().dump(std::cout, "write");
  dep.world().tracer().dump(std::cout, "lease");

  std::printf("\nfull wire trace: %zu events (showing the last 12)\n",
              w.tracer().events().size());
  w.tracer().dump(std::cout, "net", 12);
  return 0;
}
