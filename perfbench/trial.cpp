// Workload definitions and the trial runner.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "bench.h"
#include "workload/report.h"

namespace perfbench {

using dq::NodeId;
using dq::ObjectId;
namespace sim = dq::sim;
namespace workload = dq::workload;

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

int SpanLog::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = wall_s();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::end(int id) {
  spans_.at(static_cast<std::size_t>(id)).end_s = wall_s();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, std::pair<double, double>> SpanLog::totals() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, std::pair<double, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = spans_[i].end_s - spans_[i].start_s;
    auto& [total, self] = out[spans_[i].name];
    total += dur;
    self += dur - child_time[i];
  }
  return out;
}

std::string SpanLog::to_trace_json() const {
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const char* parent =
        s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name.c_str()
                      : "";
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"parent_name\":\"%s\"}}",
                  i == 0 ? "" : ",", s.name.c_str(), (s.start_s - t0) * 1e6,
                  (s.end_s - s.start_s) * 1e6, i, s.parent, parent);
    out += buf;
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kHotObjects = 64;

// The open-loop shape shared by ol-read-hit and ol-write-mix: 16 edge
// servers, 8 sites (site i homes at server i), the paper's section 4.1
// delays with no jitter, one engine thread.
WorkloadSpec open_loop_spec(std::uint64_t seed, std::size_t clients_per_site,
                            std::size_t objects, double write_ratio,
                            sim::Duration warmup, sim::Duration measured) {
  WorkloadSpec w;
  w.engine = "partitioned";
  workload::ExperimentParams& p = w.params;
  p.protocol = "dqvl";
  p.topo.num_servers = 16;
  p.topo.num_clients = 8;
  p.topo.jitter = 0.0;
  p.write_ratio = write_ratio;
  p.locality = 1.0;
  p.world_threads = 1;
  p.seed = seed;
  workload::OpenLoopParams ol;
  ol.clients_per_site = clients_per_site;
  ol.client_rate_hz = 0.5;
  ol.zipf_s = 0.99;
  ol.objects = objects;
  ol.horizon = warmup + measured;
  p.open_loop = ol;
  w.warmup = warmup;
  // Zipf rank i is object i, so the most-read objects are the lowest ids;
  // every site reads them at its home edge.
  const sim::Topology topo(p.topo);
  for (std::size_t c = 0; c < topo.num_clients(); ++c) {
    for (std::size_t o = 0; o < kHotObjects; ++o) {
      w.hot_pairs.emplace_back(topo.home_of(topo.client(c)), ObjectId(o));
    }
  }
  return w;
}

// The paper's section 4.1 deployment (9 edge servers, IQS majority:5) with
// closed-loop application clients and every fault plane switched on.
WorkloadSpec closed_loop_faults_spec(std::uint64_t seed) {
  WorkloadSpec w;
  w.engine = "serial";
  workload::ExperimentParams& p = w.params;
  p.protocol = "dqvl";
  p.topo.num_servers = 9;
  p.topo.num_clients = 64;
  p.topo.jitter = 0.0;
  p.requests_per_client = 2000;
  p.think_time = 0;
  p.write_ratio = 0.10;
  p.locality = 0.9;
  p.loss = 0.01;
  p.failures = sim::FailureInjector::Params::for_unavailability(
      0.01, sim::seconds(100));
  p.crashes = sim::CrashInjector::Params{sim::seconds(60), sim::seconds(2)};
  p.wal = dq::store::WalParams{};  // group commit
  p.op_deadline = sim::seconds(2);
  p.seed = seed;
  w.warmup = sim::seconds(5);
  // Each client reads and writes its own profile object (its node id) at
  // its home edge.
  const sim::Topology topo(p.topo);
  for (std::size_t c = 0; c < topo.num_clients(); ++c) {
    const NodeId cn = topo.client(c);
    w.hot_pairs.emplace_back(topo.home_of(cn), ObjectId(cn.value()));
  }
  return w;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"ol-read-hit", "ol-write-mix", "cl-faults"};
}

std::optional<WorkloadSpec> make_workload(const std::string& name,
                                          std::uint64_t seed) {
  std::optional<WorkloadSpec> w;
  if (name == "ol-read-hit") {
    // 80 000 req/s of reads over 256 objects.  The 2 s warm-up reads every
    // object at every site about 13 times, so the measured phase runs on
    // warm caches; the 8 s horizon stays inside the first 10 s volume
    // lease, so no lease is renewed while measuring.
    w = open_loop_spec(seed, 20000, 256, 0.0, sim::seconds(2),
                       sim::seconds(6));
    w->why =
        "every measured read is an OQS hit: event core, network accounting, "
        "generator, front end and condition C set the speed";
  } else if (name == "ol-write-mix") {
    // The initial burst of cold misses peaks within the 0.5 s warm-up.
    w = open_loop_spec(seed, 5000, 100000, 0.05, sim::milliseconds(500),
                       sim::seconds(1));
    w->why =
        "5% writes over 100k objects: most reads miss and pend, so the OQS "
        "miss path, IQS invalidations and QRPC set the speed";
  } else if (name == "cl-faults") {
    w = closed_loop_faults_spec(seed);
    w->why =
        "closed loop on the serial engine with loss, unavailability, "
        "crash/restart and a WAL: the only workload where operations fail";
  }
  if (w) w->name = name;
  return w;
}

// ---------------------------------------------------------------------------
// Trials
// ---------------------------------------------------------------------------

namespace {

// Nearest-rank quantile: the smallest sample with at least q of all samples
// at or below it.  Always an observed value, never a bucket edge.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto k = static_cast<std::size_t>(std::ceil(q * n));
  k = std::clamp<std::size_t>(k, 1, sorted.size());
  return sorted[k - 1];
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// Pending reads summed over every OQS server, sampled between run slices.
class PendingSampler {
 public:
  explicit PendingSampler(workload::Deployment& dep) {
    const auto& topo = dep.world().topology();
    for (std::size_t i = 0; i < topo.num_servers(); ++i) {
      if (dq::core::OqsServer* o = dep.oqs_server(topo.server(i))) {
        oqs_.push_back(o);
      }
    }
  }

  void sample() {
    std::int64_t sum = 0;
    for (const dq::core::OqsServer* o : oqs_) {
      sum += static_cast<std::int64_t>(o->pending_reads());
    }
    max_ = std::max(max_, sum);
    total_ += static_cast<double>(sum);
    ++samples_;
  }

  void reset() {
    max_ = 0;
    total_ = 0.0;
    samples_ = 0;
  }
  [[nodiscard]] std::int64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return samples_ == 0 ? 0.0 : total_ / static_cast<double>(samples_);
  }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }

 private:
  std::vector<const dq::core::OqsServer*> oqs_;
  std::int64_t max_ = 0;
  double total_ = 0.0;
  std::uint64_t samples_ = 0;
};

// A set-up or finish whose repeats so far (`took`, seconds each) add up to
// under kMinPhaseS runs again, at most kMaxRepeats times, so its median
// rests on more than a few milliseconds of wall time.
constexpr double kMinPhaseS = 0.5;
constexpr std::size_t kMaxRepeats = 40;

bool repeat_again(const std::vector<double>& took) {
  double spent = 0.0;
  for (const double s : took) spent += s;
  return spent < kMinPhaseS && took.size() < kMaxRepeats;
}

// Virtual-time slice between pending-read samples in the traced trial.
constexpr sim::Duration kSampleSlice = sim::milliseconds(10);

// Condition C over (read server, hot object) pairs on the warmed caches.
// Evaluation is const and reads the local clock only, so the probe cannot
// perturb the simulation.
void probe_condition_c(const WorkloadSpec& w, workload::Deployment& dep,
                       TraceResult& tr) {
  std::vector<std::pair<const dq::core::OqsServer*, ObjectId>> pairs;
  for (const auto& [server, o] : w.hot_pairs) {
    if (const dq::core::OqsServer* oqs = dep.oqs_server(server)) {
      pairs.emplace_back(oqs, o);
    }
  }
  if (pairs.empty()) return;
  std::uint64_t held = 0;
  for (const auto& [oqs, o] : pairs) held += oqs->condition_c(o) ? 1 : 0;
  tr.cold_pairs = pairs.size() - held;

  std::uint64_t calls = 0;
  std::uint64_t held_again = 0;
  const double t0 = wall_s();
  double t1 = t0;
  while (t1 - t0 < 0.05 || calls < 10 * pairs.size()) {
    for (const auto& [oqs, o] : pairs) {
      held_again += oqs->condition_c(o) ? 1 : 0;
    }
    calls += pairs.size();
    t1 = wall_s();
  }
  tr.condition_c_ns = (t1 - t0) * 1e9 / static_cast<double>(calls);
  // Virtual time stood still, so every pass must agree with the first.
  tr.condition_c_stable = held_again * pairs.size() == held * calls;
}

}  // namespace

TrialResult run_trial(const WorkloadSpec& w, SpanLog* spans) {
  const bool traced = spans != nullptr;
  TrialResult t;
  TraceResult tr;
  Scoped trial_span(spans, traced ? "trial.traced" : "trial");
  // Events at exactly `warmup` (the first batch of measured arrivals)
  // belong to the measured phase.
  const sim::Time warm_end = w.warmup - 1;

  // Set-up: build the deployment and warm it up.  A cheap set-up repeats
  // (identically: same seed); the last deployment is kept.
  std::unique_ptr<workload::Deployment> dep;
  std::vector<double> deploy_s;
  std::vector<double> warmup_s;
  std::vector<double> setup_s;
  std::optional<PendingSampler> pending;
  do {
    dep.reset();
    const double t0 = wall_s();
    {
      Scoped s(spans, "workload.Deployment");
      dep = std::make_unique<workload::Deployment>(w.params);
    }
    const double t1 = wall_s();
    {
      Scoped s(spans, "sim.World.run_until.warmup");
      dep->start_clients();
      if (traced) {
        pending.emplace(*dep);
        while (dep->world().now() < warm_end) {
          dep->world().run_until(
              std::min(dep->world().now() + kSampleSlice, warm_end));
          pending->sample();
        }
      } else {
        dep->world().run_until(warm_end);
      }
    }
    const double t2 = wall_s();
    deploy_s.push_back(t1 - t0);
    warmup_s.push_back(t2 - t1);
    setup_s.push_back(t2 - t0);
  } while (!traced && repeat_again(setup_s));
  t.setup_repeats = setup_s.size();
  t.deploy_s = median(deploy_s);
  t.warmup_s = median(warmup_s);
  t.setup_s = median(setup_s);

  sim::World& world = dep->world();
  dq::obs::Counter& sent = world.metrics().counter("net.sent");
  const std::uint64_t sent0 = sent.value();
  const std::size_t events0 = world.executed_events();
  if (traced) {
    tr.warmup_pending_max = pending->max();
    pending->reset();
    {
      Scoped s(spans, "obs.MetricsRegistry.snapshot.warmup");
      tr.at_warmup = world.metrics().snapshot();
    }
    Scoped s(spans, "core.OqsServer.condition_c");
    probe_condition_c(w, *dep, tr);
  }

  const double t3 = wall_s();
  {
    // Deployment::run()'s loop: one virtual second at a time until every
    // client is done, so both kinds of trial end at the same virtual time
    // and render the same report.  The traced trial samples within it.
    Scoped s(spans, "sim.World.run.measured");
    while (!dep->clients_done() && world.now() < w.params.max_sim_time) {
      const sim::Time step_end = world.now() + sim::seconds(1);
      if (traced) {
        while (world.now() < step_end) {
          world.run_until(std::min(world.now() + kSampleSlice, step_end));
          pending->sample();
        }
      } else {
        world.run_until(step_end);
      }
    }
  }
  t.measured_s = wall_s() - t3;
  t.v.msgs = sent.value() - sent0;
  t.v.events = world.executed_events() - events0;

  // Finish: collect() (which runs the regular checker) and render the
  // report; repeated like a cheap set-up (both are pure functions of the
  // finished deployment).
  workload::ExperimentResult r;
  std::string doc;
  std::vector<double> collect_s;
  std::vector<double> to_json_s;
  std::vector<double> finish_s;
  do {
    r = {};  // one result alive at a time: repeats must not raise peak RSS
    const double t4 = wall_s();
    {
      Scoped s(spans, "workload.Deployment.collect");
      r = dep->collect();
    }
    const double t5 = wall_s();
    {
      Scoped s(spans, "workload.report.to_json");
      doc = workload::report::to_json(w.params, r);
    }
    const double t6 = wall_s();
    collect_s.push_back(t5 - t4);
    to_json_s.push_back(t6 - t5);
    finish_s.push_back(t6 - t4);
  } while (!traced && repeat_again(finish_s));
  t.finish_repeats = finish_s.size();
  t.collect_s = median(collect_s);
  t.to_json_s = median(to_json_s);
  t.finish_s = median(finish_s);

  if (traced) {
    tr.pending_max = pending->max();
    tr.pending_mean = pending->mean();
    tr.pending_samples = pending->samples();
    {
      // collect() already ran the checker; time it on its own here.
      Scoped s(spans, "workload.History.check_regular");
      const double c0 = wall_s();
      tr.check_regular_violations = r.history.check_regular().size();
      tr.check_regular_s = wall_s() - c0;
    }
    {
      Scoped s(spans, "obs.MetricsRegistry.snapshot.end");
      const double s0 = wall_s();
      tr.at_end = world.metrics().snapshot();
      tr.snapshot_s = wall_s() - s0;
    }
  }

  // Virtual results of the measured phase, from the per-op records.
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  for (const workload::OpRecord& op : r.history.ops()) {
    if (op.invoked < w.warmup) continue;
    ++t.v.offered;
    if (!op.ok) continue;
    ++t.v.ok;
    const double ms = sim::to_ms(op.completed - op.invoked);
    (op.kind == dq::msg::OpKind::kRead ? read_ms : write_ms).push_back(ms);
  }
  std::sort(read_ms.begin(), read_ms.end());
  std::sort(write_ms.begin(), write_ms.end());
  t.v.reads = read_ms.size();
  t.v.writes = write_ms.size();
  t.v.read_p50_ms = quantile(read_ms, 0.50);
  t.v.read_p999_ms = quantile(read_ms, 0.999);
  t.v.write_p50_ms = quantile(write_ms, 0.50);
  t.v.write_p99_ms = quantile(write_ms, 0.99);
  t.v.history_ops = r.history.size();
  if (w.params.open_loop) {
    for (std::size_t i = 0; i < dep->num_sites(); ++i) {
      t.v.issued_ops += dep->site(i).offered();
    }
  } else {
    t.v.issued_ops = dep->num_clients() * w.params.requests_per_client;
  }
  t.v.violations = r.violations.size();
  t.v.report_hash = fnv1a(doc);
  if (traced) t.trace = std::move(tr);

  {
    Scoped s(spans, "workload.~Deployment");
    dep.reset();
  }
  return t;
}

}  // namespace perfbench
