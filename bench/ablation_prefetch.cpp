// Ablation: cold-start warmup via volume prefetch (bulk revalidation).
//
// A restarted edge server has an empty cache; without help, the first read
// of each object pays a renewal round trip (a "miss storm").  One
// DqVolFetch per IQS member warms the whole volume in a single exchange.
#include "bench_util.h"
#include "protocols/dq_client.h"

using namespace dq;
using namespace dq::bench;

namespace {

struct Probe {
  double first_pass_read_ms;   // mean read latency right after restart
  std::uint64_t messages;      // messages spent warming + reading
};

Probe probe(bool prefetch, std::size_t objects) {
  workload::ExperimentParams p;
  p.protocol = "dqvl";
  p.requests_per_client = 0;
  workload::Deployment dep(p);
  auto& w = dep.world();
  auto client = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(0), dep.dq_config());
  auto writer = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(1), dep.dq_config());
  dep.server_node(0).add_handler(
      [client](const sim::Envelope& e) { return client->on_message(e); });
  dep.server_node(1).add_handler(
      [writer](const sim::Envelope& e) { return writer->on_message(e); });
  auto spin = [&](bool& f) {
    while (!f) w.run_for(sim::milliseconds(5));
  };
  for (std::uint64_t k = 0; k < objects; ++k) {
    bool done = false;
    writer->write(ObjectId(k), "v", [&](bool, LogicalClock) { done = true; });
    spin(done);
  }
  // Simulate the restart: server 0 is cold.
  const NodeId s0 = w.topology().server(0);
  w.crash(s0);
  w.restart(s0);

  const auto msgs_before = w.sent_messages();
  if (prefetch) {
    bool done = false;
    dep.oqs_server(s0)->prefetch(VolumeId(0), [&](bool) { done = true; });
    spin(done);
  }
  obs::HistogramData reads;
  for (std::uint64_t k = 0; k < objects; ++k) {
    bool done = false;
    const sim::Time t0 = w.now();
    client->read(ObjectId(k), [&](bool, VersionedValue) { done = true; });
    spin(done);
    reads.add(sim::to_ms(w.now() - t0));
  }
  return {reads.mean(), w.sent_messages() - msgs_before};
}

}  // namespace

int main(int argc, char** argv) {
  header("Ablation", "cold-start warmup: per-object misses vs volume prefetch");
  row({"objects", "policy", "first-pass read(ms)", "messages"}, 22);
  // Each probe owns its World, so the six configurations fan out across
  // --jobs threads.
  struct Cfg {
    std::size_t objects;
    bool prefetch;
  };
  std::vector<Cfg> cfgs;
  for (std::size_t n : {10u, 50u, 200u}) {
    for (bool pf : {false, true}) cfgs.push_back({n, pf});
  }
  std::vector<Probe> probes(cfgs.size());
  run::parallel_for_index(
      cfgs.size(), bench::jobs_from_argv(argc, argv),
      [&](std::size_t i) { probes[i] = probe(cfgs[i].prefetch,
                                             cfgs[i].objects); });
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    row({std::to_string(cfgs[i].objects),
         cfgs[i].prefetch ? "prefetch" : "miss storm",
         fmt(probes[i].first_pass_read_ms, 1),
         std::to_string(probes[i].messages)},
        22);
  }
  std::printf("\none bulk fetch per IQS member replaces a renewal round "
              "trip per object\n");
  return 0;
}
