// Quickstart: bring up a dual-quorum deployment (5 IQS members, 9 OQS
// members, one per edge server), write a customer profile through the IQS,
// read it back locally through the OQS, then peek at what crossed the wire.
//
//   $ ./quickstart
#include <cstdio>

#include "protocols/dq_client.h"
#include "workload/experiment.h"

using namespace dq;

int main() {
  // A deployment is a simulated edge network: 9 edge servers, paper delays
  // (8 ms client<->home RTT, 86 ms client<->remote, 80 ms server<->server).
  workload::ExperimentParams params;
  params.protocol = "dqvl";
  params.requests_per_client = 0;  // we drive operations ourselves
  workload::Deployment dep(params);
  sim::World& world = dep.world();

  // Embed a service client on edge server 2.  Server 2 is an OQS member, so
  // once its leases are warm, its reads are answered locally.
  const std::size_t host_idx = 2;
  const NodeId host = world.topology().server(host_idx);
  protocols::DqServiceClient client(world, host, dep.dq_config());
  dep.server_node(host_idx).add_handler(
      [&client](const sim::Envelope& e) { return client.on_message(e); });

  std::printf("== dual-quorum quickstart ==\n");

  bool done = false;
  VersionedValue read_back;
  sim::Time write_started = 0, write_done = 0, read1_done = 0;

  write_started = world.now();
  client.write(ObjectId(42), "alice:credit=900",
               [&](bool ok, LogicalClock lc) {
    write_done = world.now();
    std::printf("write:       ok=%d lc=%llu.%u   latency %.1f ms\n", ok,
                static_cast<unsigned long long>(lc.counter), lc.writer,
                sim::to_ms(write_done - write_started));
    client.read(ObjectId(42), [&](bool ok2, VersionedValue vv) {
      read1_done = world.now();
      std::printf("read (miss): ok=%d value='%s'   latency %.1f ms "
                  "(renewed leases from the IQS)\n",
                  ok2, vv.value.c_str(), sim::to_ms(read1_done - write_done));
      client.read(ObjectId(42), [&](bool ok3, VersionedValue vv2) {
        std::printf("read (hit):  ok=%d value='%s'   latency %.1f ms "
                    "(served from the local OQS cache)\n",
                    ok3, vv2.value.c_str(),
                    sim::to_ms(world.now() - read1_done));
        read_back = vv2;
        done = true;
      });
    });
  });

  while (!done) world.run_for(sim::seconds(1));

  std::printf("\nmessages on the wire, by type:\n");
  for (const auto& [name, count] : world.sent_by_type()) {
    std::printf("  %-20s %llu\n", name.c_str(),
                static_cast<unsigned long long>(count));
  }
  return read_back.value == "alice:credit=900" ? 0 : 1;
}
