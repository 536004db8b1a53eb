// dqbench: runs one trial of one benchmark workload and prints its raw
// measurements as one JSON line.
//
//   dqbench --workload NAME --seed N --mode plain|traced [--ladder]
//           [--spans PATH]
//
// plain   build, warm up, run the measured phase, collect and render the
//         dq.report.v1 document, with no probes;
// traced  the same trial with spans around every call into a module,
//         registry snapshots at the phase boundaries, pending reads sampled
//         between run slices, and condition C timed on the warmed caches;
// --ladder  afterwards, the stack ladder's lower rungs and the scheduler and
//         histogram micro-probes (traced mode only).
//
// perfbench/run.py starts one process per trial, so every trial begins from
// the same process state, and turns the raw numbers into the benchmark's
// metrics.  The seed reaches the simulator only as ExperimentParams::seed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "bench_util.h"

namespace {

using perfbench::TraceResult;
using perfbench::TrialResult;
using perfbench::WorkloadSpec;

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// Ordered JSON object, built field by field.
class Obj {
 public:
  Obj& add(const std::string& k, double v) { return raw(k, num(v)); }
  Obj& add(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Obj& add(const std::string& k, std::int64_t v) {
    return raw(k, std::to_string(v));
  }
  Obj& add(const std::string& k, const std::string& v) {
    return raw(k, quoted(v));
  }
  Obj& add(const std::string& k, const char* v) { return raw(k, quoted(v)); }
  Obj& raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + quoted(k) + ":" + json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string ms_to_s(dq::sim::Duration d) {
  return num(dq::sim::to_ms(d) / 1e3);
}

// The workload's parameters, as the description of every result records
// them.
std::string params_json(const WorkloadSpec& w) {
  const dq::workload::ExperimentParams& p = w.params;
  Obj o;
  o.add("protocol", p.protocol)
      .add("servers", static_cast<std::uint64_t>(p.topo.num_servers))
      .add("iqs", p.iqs.describe())
      .raw("lease_s", ms_to_s(p.lease_length))
      .add("write_ratio", p.write_ratio)
      .add("locality", p.locality)
      .raw("warmup_s", ms_to_s(w.warmup));
  if (p.open_loop) {
    const dq::workload::OpenLoopParams& ol = *p.open_loop;
    o.add("loop", "open, Poisson arrivals")
        .add("sites", static_cast<std::uint64_t>(p.topo.num_clients))
        .add("clients_per_site",
             static_cast<std::uint64_t>(ol.clients_per_site))
        .add("client_rate_hz", ol.client_rate_hz)
        .add("offered_req_per_s",
             ol.site_rate_hz() * static_cast<double>(p.topo.num_clients))
        .add("zipf_s", ol.zipf_s)
        .add("objects", static_cast<std::uint64_t>(ol.objects))
        .raw("horizon_s", ms_to_s(ol.horizon));
  } else {
    o.add("loop", "closed")
        .add("clients", static_cast<std::uint64_t>(p.topo.num_clients))
        .add("requests_per_client",
             static_cast<std::uint64_t>(p.requests_per_client))
        .raw("think_s", ms_to_s(p.think_time))
        .add("objects", "one profile object per client")
        .add("loss", p.loss);
    if (p.failures) {
      o.add("node_unavailability", p.failures->steady_state_unavailability())
          .raw("unavailability_mttf_s",
               ms_to_s(p.failures->mean_time_to_failure));
    }
    if (p.crashes) {
      o.raw("crash_mttc_s", ms_to_s(p.crashes->mean_time_to_crash))
          .raw("crash_downtime_s", ms_to_s(p.crashes->mean_downtime));
    }
    if (p.wal) o.add("wal", dq::store::to_string(p.wal->policy));
    if (p.op_deadline < dq::sim::kTimeInfinity) {
      o.raw("op_deadline_s", ms_to_s(p.op_deadline));
    }
  }
  return o.str();
}

std::string description_json(const WorkloadSpec& w) {
  const dq::bench::HostInfo host = dq::bench::host_info();
  const auto& t = w.params.topo;
  return Obj()
      .add("why", w.why)
      .raw("host", Obj()
                       .add("cpu_model", host.cpu_model)
                       .add("hardware_threads",
                            static_cast<std::uint64_t>(host.hardware_threads))
                       .str())
      .raw("engine",
           Obj().add("kind", w.engine).add("threads", std::uint64_t{1}).str())
      .raw("params", params_json(w))
      .raw("delay_matrix",
           Obj()
               .raw("client_home_ms", num(dq::sim::to_ms(t.client_to_home)))
               .raw("client_remote_ms",
                    num(dq::sim::to_ms(t.client_to_remote)))
               .raw("server_server_ms",
                    num(dq::sim::to_ms(t.server_to_server)))
               .raw("processing_ms", num(dq::sim::to_ms(t.processing_delay)))
               .add("jitter", t.jitter)
               .str())
      .str();
}

std::string virtual_json(const perfbench::VirtualResult& v) {
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(v.report_hash));
  return Obj()
      .add("offered", v.offered)
      .add("ok", v.ok)
      .add("reads", v.reads)
      .add("writes", v.writes)
      .add("read_p50_ms", v.read_p50_ms)
      .add("read_p999_ms", v.read_p999_ms)
      .add("write_p50_ms", v.write_p50_ms)
      .add("write_p99_ms", v.write_p99_ms)
      .add("msgs", v.msgs)
      .add("events", v.events)
      .add("history_ops", v.history_ops)
      .add("issued_ops", v.issued_ops)
      .add("violations", v.violations)
      .add("report_fnv1a", std::string(hash))
      .str();
}

// Registry deltas over the measured phase: counters and histogram
// count/sum as (end - warm-up boundary); gauges as their high-water mark.
std::string registry_json(const TraceResult& tr) {
  Obj counters;
  for (const auto& [name, end] : tr.at_end.counters) {
    counters.add(name, end - tr.at_warmup.counter(name));
  }
  Obj hists;
  for (const auto& [name, end] : tr.at_end.histograms) {
    const dq::obs::HistogramData* warm = tr.at_warmup.histogram(name);
    hists.raw(name,
              Obj()
                  .add("count", end.count - (warm ? warm->count : 0))
                  .add("sum", end.sum - (warm ? warm->sum : 0.0))
                  .str());
  }
  Obj gauges;
  for (const auto& [name, g] : tr.at_end.gauges) gauges.add(name, g.max);
  return Obj()
      .raw("counters", counters.str())
      .raw("histograms", hists.str())
      .raw("gauge_max", gauges.str())
      .str();
}

std::string trace_json(const TraceResult& tr, const perfbench::SpanLog& spans) {
  Obj totals;
  for (const auto& [name, ts] : spans.totals()) {
    totals.raw(name,
               Obj().add("total_s", ts.first).add("self_s", ts.second).str());
  }
  return Obj()
      .add("check_regular_s", tr.check_regular_s)
      .add("check_regular_violations", tr.check_regular_violations)
      .add("snapshot_s", tr.snapshot_s)
      .add("condition_c_ns", tr.condition_c_ns)
      .raw("condition_c_stable", tr.condition_c_stable ? "true" : "false")
      .add("cold_hot_pairs", tr.cold_pairs)
      .add("warmup_pending_max", tr.warmup_pending_max)
      .add("pending_max", tr.pending_max)
      .add("pending_mean", tr.pending_mean)
      .add("pending_samples", tr.pending_samples)
      .raw("registry", registry_json(tr))
      .raw("spans", totals.str())
      .str();
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "dqbench: %s\nusage: dqbench --workload NAME --seed N "
               "--mode plain|traced [--ladder] [--spans PATH]\nworkloads:",
               why.c_str());
  for (const std::string& n : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string mode;
  std::string spans_path;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool ladder = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--ladder") {
      ladder = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + a);
    const char* v = argv[++i];
    if (a == "--workload") {
      name = v;
    } else if (a == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (a == "--mode") {
      mode = v;
    } else if (a == "--spans") {
      spans_path = v;
    } else {
      return usage("unknown argument " + a);
    }
  }
  if (!have_seed) return usage("--seed takes a whole number");
  if (mode != "plain" && mode != "traced") {
    return usage("--mode takes plain or traced");
  }
  if (ladder && mode != "traced") return usage("--ladder needs --mode traced");
  const std::optional<WorkloadSpec> spec = perfbench::make_workload(name, seed);
  if (!spec) return usage("unknown workload '" + name + "'");
  const WorkloadSpec& w = *spec;

  perfbench::SpanLog spans;
  const TrialResult t =
      perfbench::run_trial(w, mode == "traced" ? &spans : nullptr);
  const double rss = peak_rss_mb();

  Obj out;
  out.add("schema", "dq.perfbench.trial.v1")
      .add("workload", w.name)
      .add("seed", seed)
      .add("mode", mode)
      .raw("description", description_json(w))
      .raw("wall", Obj()
                       .add("deploy_s", t.deploy_s)
                       .add("warmup_s", t.warmup_s)
                       .add("setup_s", t.setup_s)
                       .add("setup_repeats",
                            static_cast<std::uint64_t>(t.setup_repeats))
                       .add("measured_s", t.measured_s)
                       .add("collect_s", t.collect_s)
                       .add("to_json_s", t.to_json_s)
                       .add("finish_s", t.finish_s)
                       .add("finish_repeats",
                            static_cast<std::uint64_t>(t.finish_repeats))
                       .add("peak_rss_mb", rss)
                       .str())
      .raw("virtual", virtual_json(t.v));
  if (ladder) {
    const perfbench::LadderRungs rungs = perfbench::run_ladder_rungs(w, &spans);
    double sched = 0.0;
    double observe = 0.0;
    {
      perfbench::Scoped s(&spans, "sim.Scheduler.probe");
      sched = perfbench::scheduler_events_per_s();
    }
    {
      perfbench::Scoped s(&spans, "obs.Histogram.observe.probe");
      observe = perfbench::histogram_observe_ns();
    }
    out.raw("ladder",
            Obj().add("sink_s", rungs.sink_s).add("stub_s", rungs.stub_s).str())
        .raw("probes", Obj()
                           .add("sched_events_per_s", sched)
                           .add("observe_ns", observe)
                           .str());
  }
  if (t.trace) out.raw("trace", trace_json(*t.trace, spans));
  if (!spans_path.empty()) {
    std::FILE* f = std::fopen(spans_path.c_str(), "w");
    const std::string doc = spans.to_trace_json();
    const bool ok = f != nullptr &&
                    std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    if (f == nullptr || std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "dqbench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}
