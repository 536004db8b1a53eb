// Shared declarations of the repository benchmark (perfbench/).
//
// The benchmark drives the simulator only through its public library API
// (workload::Deployment, sim::World, the obs registry, the protocol
// registry) and measures each layer from outside: wall-clock spans around
// calls into a module, and deltas of the counters the simulator already
// keeps.  Nothing here is linked into the simulator itself.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "sim/time.h"
#include "workload/experiment.h"

namespace perfbench {

// Seconds on the host's monotonic clock.
[[nodiscard]] double wall_s();
// Median (mean of the middle two for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

// ---------------------------------------------------------------------------
// Spans: (name, start, end, parent), kept in memory and written out when the
// run ends.  Only the traced run records them.
// ---------------------------------------------------------------------------
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  // index into the log, -1 for a root span
};

class SpanLog {
 public:
  // Opens a span as a child of the innermost open span.
  int begin(std::string name);
  void end(int id);

  // Per span name: total duration and self time (duration minus the part
  // its child spans cover), in seconds.
  [[nodiscard]] std::map<std::string, std::pair<double, double>> totals()
      const;
  // Chrome trace-event JSON ("X" events, microseconds from the first span).
  [[nodiscard]] std::string to_trace_json() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null log records nothing.
class Scoped {
 public:
  Scoped(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->begin(std::move(name)) : -1) {}
  ~Scoped() {
    if (log_ != nullptr) log_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------
struct WorkloadSpec {
  std::string name;
  std::string why;     // the one-line reason the workload exists
  std::string engine;  // "partitioned" or "serial"
  dq::workload::ExperimentParams params;
  // The measured phase covers operations invoked at or after `warmup`.
  dq::sim::Time warmup = 0;
  // (edge server, object) pairs whose condition C the traced run times:
  // the most-read objects at the edges that serve their reads.
  std::vector<std::pair<dq::NodeId, dq::ObjectId>> hot_pairs;
};

[[nodiscard]] std::vector<std::string> workload_names();
// nullopt for an unknown name.
[[nodiscard]] std::optional<WorkloadSpec> make_workload(
    const std::string& name, std::uint64_t seed);

// ---------------------------------------------------------------------------
// One trial: build, warm up, run the measured phase, collect and render.
// ---------------------------------------------------------------------------

// Everything a trial's virtual (simulated) time produced.  A pure function
// of the workload and its seed, so perfbench/run.py compares it field by
// field across trials.
struct VirtualResult {
  std::uint64_t offered = 0;     // ops invoked in the measured phase
  std::uint64_t ok = 0;          // ... that completed OK
  std::uint64_t reads = 0, writes = 0;  // OK samples behind the quantiles
  double read_p50_ms = 0.0, read_p999_ms = 0.0;
  double write_p50_ms = 0.0, write_p99_ms = 0.0;
  std::uint64_t msgs = 0;        // messages sent in the measured phase
  std::uint64_t events = 0;      // events executed in the measured phase
  std::uint64_t history_ops = 0;   // every op recorded over the whole trial
  std::uint64_t issued_ops = 0;    // every op the clients issued
  std::uint64_t violations = 0;    // regular-semantics violations
  std::uint64_t report_hash = 0;   // FNV-1a of the dq.report.v1 document
};

// Extra measurements of a traced trial.
struct TraceResult {
  dq::obs::MetricsSnapshot at_warmup, at_end;
  double check_regular_s = 0.0;
  std::uint64_t check_regular_violations = 0;  // of the timed re-check
  double snapshot_s = 0.0;
  double condition_c_ns = 0.0;
  bool condition_c_stable = true;  // every timed pass gave the same answers
  std::uint64_t cold_pairs = 0;    // hot pairs whose condition C fails
  std::int64_t warmup_pending_max = 0;
  std::int64_t pending_max = 0;
  double pending_mean = 0.0;
  std::uint64_t pending_samples = 0;
};

// Wall seconds of one trial's phases.  Set-up (deploy + warm-up) and finish
// (collect + to_json) are medians over their repeats; see run_trial().
struct TrialResult {
  double deploy_s = 0.0, warmup_s = 0.0, setup_s = 0.0;
  std::size_t setup_repeats = 0;
  double measured_s = 0.0;
  double collect_s = 0.0, to_json_s = 0.0, finish_s = 0.0;
  std::size_t finish_repeats = 0;
  VirtualResult v;
  std::optional<TraceResult> trace;
};

// `spans` non-null selects the traced trial, which runs each phase once.
[[nodiscard]] TrialResult run_trial(const WorkloadSpec& w, SpanLog* spans);

// ---------------------------------------------------------------------------
// Probes of single layers (probes.cpp)
// ---------------------------------------------------------------------------

// Steady-state Scheduler::schedule_at + run_all throughput.
[[nodiscard]] double scheduler_events_per_s();
// Wall ns per obs::Histogram::observe() over a fixed spread of values.
[[nodiscard]] double histogram_observe_ns();

// Wall seconds of the measured phase on the stack ladder's lower rungs --
// (a) sink servers, (b) front ends over a stub service client -- each the
// median of three runs.  Both replay the open-loop workload's arrival
// schedule over the same phase as the full trial (rung c).  Zero for
// closed-loop workloads, which have no fixed schedule to replay.
struct LadderRungs {
  double sink_s = 0.0;
  double stub_s = 0.0;
};
[[nodiscard]] LadderRungs run_ladder_rungs(const WorkloadSpec& w,
                                           SpanLog* spans);

}  // namespace perfbench
