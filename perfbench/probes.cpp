// Probes of single layers: the scheduler and histogram micro-probes, and the
// lower rungs of the open-loop stack ladder.
#include <cmath>
#include <memory>
#include <vector>

#include "bench.h"
#include "protocols/registry.h"
#include "protocols/service_client.h"
#include "sim/parallel_world.h"
#include "sim/scheduler.h"
#include "workload/open_loop.h"

namespace perfbench {

namespace sim = dq::sim;
namespace workload = dq::workload;

namespace {

constexpr int kProbeRepeats = 3;

// Servers that swallow every message: rung (a) measures emission, the event
// core and network accounting only.
class SinkServer final : public sim::Actor {
 public:
  void on_message(const sim::Envelope&) override {}
};

// A service client that answers every operation on the spot: rung (b)
// measures the front end and the request/reply round trip without any
// replication protocol behind it.
class StubServiceClient final : public dq::protocols::ServiceClient {
 public:
  void read(dq::ObjectId, ReadCallback done) override {
    done(true, dq::VersionedValue{});
  }
  void write(dq::ObjectId, dq::Value, WriteCallback done) override {
    done(true, dq::LogicalClock{});
  }
  bool on_message(const sim::Envelope&) override { return false; }
  void cancel_all() override {}
};

constexpr const char* kStubProtocol = "perfbench-stub";

void register_stub_protocol() {
  static const bool registered = [] {
    dq::protocols::ProtocolInfo info;
    info.name = kStubProtocol;
    info.display_name = "perfbench stub";
    info.build = [](workload::Deployment& d) {
      for (std::size_t i = 0; i < d.world().topology().num_servers(); ++i) {
        d.install_front_end(i, std::make_shared<StubServiceClient>());
      }
      d.install_app_clients();
    };
    dq::protocols::Registry::instance().add(std::move(info));
    return true;
  }();
  (void)registered;
}

// Rung (a): the workload's generators in front of sink servers, on the same
// engine, topology and seed, so the arrival schedule is the workload's own.
// Replies are not tracked (nothing ever answers).
double sink_measured_s(const WorkloadSpec& w) {
  const workload::ExperimentParams& p = w.params;
  sim::Topology topo(p.topo);
  sim::World::Parallelism par;
  par.partitions = sim::par::default_partition_count(topo);
  par.threads = 1;
  sim::World world(std::move(topo), p.seed, par);

  std::vector<std::unique_ptr<SinkServer>> sinks;
  for (std::size_t i = 0; i < world.topology().num_servers(); ++i) {
    sinks.push_back(std::make_unique<SinkServer>());
    world.attach(world.topology().server(i), *sinks.back());
  }
  workload::OpenLoopParams ol = *p.open_loop;
  ol.track_replies = false;
  auto zipf = std::make_shared<const workload::ZipfAliasTable>(ol.zipf_s,
                                                               ol.objects);
  std::vector<std::unique_ptr<workload::SiteGenerator>> gens;
  for (std::size_t c = 0; c < world.topology().num_clients(); ++c) {
    workload::SiteGenerator::Params gp;
    gp.ol = ol;
    gp.write_ratio = p.write_ratio;
    gp.locality = p.locality;
    gp.site = c;
    gp.seed = p.seed;
    gp.zipf = zipf;
    gens.push_back(std::make_unique<workload::SiteGenerator>(std::move(gp)));
    world.attach(world.topology().client(c), *gens.back());
  }
  for (auto& g : gens) g->start();
  world.run_until(w.warmup - 1);
  const double t0 = wall_s();
  world.run_until(ol.horizon + sim::seconds(1));  // last deliveries land
  return wall_s() - t0;
}

// Rung (b): a full Deployment whose protocol is the stub.
double stub_measured_s(const WorkloadSpec& w) {
  register_stub_protocol();
  workload::ExperimentParams p = w.params;
  p.protocol = kStubProtocol;
  workload::Deployment dep(p);
  dep.start_clients();
  dep.world().run_until(w.warmup - 1);
  const double t0 = wall_s();
  while (!dep.clients_done() && dep.world().now() < p.max_sim_time) {
    dep.world().run_for(sim::seconds(1));
  }
  return wall_s() - t0;
}

}  // namespace

double scheduler_events_per_s() {
  constexpr int kBatch = 1000;
  std::vector<double> rates;
  for (int r = 0; r < kProbeRepeats; ++r) {
    sim::Scheduler s;
    std::uint64_t fired = 0;
    const double t0 = wall_s();
    double t1 = t0;
    while (t1 - t0 < 0.1) {
      for (int i = 0; i < kBatch; ++i) {
        s.schedule_at(s.now() + i, [&fired] { ++fired; });
      }
      s.run_all();
      t1 = wall_s();
    }
    rates.push_back(static_cast<double>(fired) / (t1 - t0));
  }
  return median(rates);
}

double histogram_observe_ns() {
  // 4096 values spread log-uniformly over 1 us .. ~16 s, covering every
  // bucket a simulated latency lands in.
  std::vector<double> values(4096);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 0.001 * std::exp2(24.0 * static_cast<double>(i) /
                                  static_cast<double>(values.size()));
  }
  std::vector<double> costs;
  for (int r = 0; r < kProbeRepeats; ++r) {
    dq::obs::MetricsRegistry reg;
    dq::obs::Histogram& h = reg.histogram("perfbench.observe_ms");
    std::uint64_t n = 0;
    const double t0 = wall_s();
    double t1 = t0;
    while (t1 - t0 < 0.05) {
      for (const double v : values) h.observe(v);
      n += values.size();
      t1 = wall_s();
    }
    if (h.data().count != n) return 0.0;
    costs.push_back((t1 - t0) * 1e9 / static_cast<double>(n));
  }
  return median(costs);
}

LadderRungs run_ladder_rungs(const WorkloadSpec& w, SpanLog* spans) {
  LadderRungs out;
  if (!w.params.open_loop) return out;
  std::vector<double> sink;
  std::vector<double> stub;
  for (int r = 0; r < kProbeRepeats; ++r) {
    {
      Scoped s(spans, "ladder.a.sink");
      sink.push_back(sink_measured_s(w));
    }
    Scoped s(spans, "ladder.b.stub");
    stub.push_back(stub_measured_s(w));
  }
  out.sink_s = median(sink);
  out.stub_s = median(stub);
  return out;
}

}  // namespace perfbench
