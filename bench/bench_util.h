// Shared helpers for the figure-regeneration benches: experiment shortcuts,
// aligned table printing, and the snapshot reporter.
//
// Every bench prints (a) what the paper's figure shows, (b) the series this
// implementation produces, so EXPERIMENTS.md can record paper-vs-measured
// for each figure.  Benches additionally drop a machine-readable
// BENCH_<name>.json next to that output (see Reporter), so figure data can
// be regenerated and diffed without scraping stdout.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "run/parallel_runner.h"
#include "workload/experiment.h"
#include "workload/report.h"

namespace dq::bench {

// ---------------------------------------------------------------------------
// Hardware provenance.  Perf baselines are only comparable when they were
// captured on the same hardware; every dq.bench.v1 envelope therefore
// carries a "host" block, and `baseline_comparable` says whether the
// checked-in baseline at the same path was captured on this host (false =
// the absolute numbers explain a drift like ROADMAP's 18.7M vs the current
// BENCH_sim_throughput.json, not a regression).
// ---------------------------------------------------------------------------

struct HostInfo {
  std::string cpu_model = "unknown";
  unsigned hardware_threads = 1;
};

inline HostInfo host_info() {
  HostInfo h;
  h.hardware_threads = static_cast<unsigned>(run::resolve_jobs(0));
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return h;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* colon = std::strchr(line, ':');
    if (colon == nullptr) break;
    std::string v = colon + 1;
    while (!v.empty() && (v.front() == ' ' || v.front() == '\t')) {
      v.erase(v.begin());
    }
    while (!v.empty() && (v.back() == '\n' || v.back() == '\r' ||
                          v.back() == ' ')) {
      v.pop_back();
    }
    if (!v.empty()) h.cpu_model = v;
    break;
  }
  std::fclose(f);
  return h;
}

inline std::string host_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// Does the existing baseline at `path` (about to be replaced) carry a host
// block matching this machine?  A missing file or a pre-provenance envelope
// has nothing to drift from and counts as comparable.
inline bool baseline_comparable(const std::string& path, const HostInfo& h) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return true;
  std::string doc;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) doc.append(buf, n);
  std::fclose(f);
  if (doc.find("\"host\":") == std::string::npos) return true;
  const bool cpu_ok =
      doc.find("\"cpu_model\":\"" + host_escape(h.cpu_model) + "\"") !=
      std::string::npos;
  const bool threads_ok =
      doc.find("\"hardware_threads\":" + std::to_string(h.hardware_threads)) !=
      std::string::npos;
  return cpu_ok && threads_ok;
}

inline std::string host_json(const HostInfo& h, bool comparable) {
  return "{\"cpu_model\":\"" + host_escape(h.cpu_model) +
         "\",\"hardware_threads\":" + std::to_string(h.hardware_threads) +
         ",\"baseline_comparable\":" + (comparable ? "true" : "false") + "}";
}

// Parse --jobs=N from a bench command line (0 = one per hardware thread;
// default 1 = serial).  Benches without a Reporter use this directly with
// run::parallel_for_index / run::run_experiments.
inline std::size_t jobs_from_argv(int argc, char** argv) {
  std::size_t jobs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--jobs=", 0) == 0) {
      jobs = run::resolve_jobs(
          static_cast<std::size_t>(std::strtoul(a.c_str() + 7, nullptr, 10)));
    }
  }
  return jobs;
}

inline void header(const char* fig, const char* what) {
  std::printf("==================================================================\n");
  std::printf("%s -- %s\n", fig, what);
  std::printf("==================================================================\n");
}

// One table row: every cell padded to `width`, and a cell that fills it or
// overflows still gets one space before the next.
inline void row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) {
    std::printf("%-*s%s", width, c.c_str(),
                static_cast<int>(c.size()) >= width ? " " : "");
  }
  std::printf("\n");
}

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

inline std::string fmt_sci(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2e", v);
  return buf;
}

// The paper's section 4.1 response-time setup: 9 edge servers, 3 application
// clients, 8/86/80 ms RTTs, closed loop.
inline workload::ExperimentParams response_time_params(
    std::string proto, double write_ratio, double locality,
    std::uint64_t seed = 42, std::size_t requests = 400) {
  workload::ExperimentParams p;
  p.protocol = proto;
  p.write_ratio = write_ratio;
  p.locality = locality;
  p.requests_per_client = requests;
  p.seed = seed;
  return p;
}

inline workload::ExperimentResult response_time_run(
    std::string proto, double write_ratio, double locality,
    std::uint64_t seed = 42, std::size_t requests = 400) {
  return workload::run_experiment(
      response_time_params(proto, write_ratio, locality, seed, requests));
}

// Collects one dq.report.v1 document per recorded run and writes them as a
// dq.bench.v1 envelope on destruction:
//
//   {"schema": "dq.bench.v1", "bench": "<name>", "runs": [<report>, ...]}
//
// Default output path is BENCH_<name>.json in the working directory;
// --json=PATH on the bench command line overrides it.
//
// Command-line flags parsed by every bench:
//   --json=PATH   write the envelope to PATH
//   --jobs=N      fan run_batch trials across N threads (0 = one per
//                 hardware thread; default 1).  Trials are independent
//                 simulations, so the output -- table rows, report order,
//                 every byte of the envelope -- is identical at any N.
class Reporter {
 public:
  explicit Reporter(std::string name, int argc = 0, char** argv = nullptr)
      : name_(std::move(name)), path_("BENCH_" + name_ + ".json") {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--json=", 0) == 0) path_ = a.substr(7);
    }
    jobs_ = jobs_from_argv(argc, argv);
  }

  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  ~Reporter() { write(); }

  // Run an experiment and record its report.
  workload::ExperimentResult run(const workload::ExperimentParams& p) {
    workload::ExperimentResult r = workload::run_experiment(p);
    record(p, r);
    return r;
  }

  // Run a batch of independent trials through the parallel runner (--jobs
  // threads) and record each report.  Results come back in trial order, so
  // callers print their tables from the returned vector exactly as if they
  // had looped over run() serially.
  std::vector<workload::ExperimentResult> run_batch(
      const std::vector<workload::ExperimentParams>& ps) {
    std::vector<workload::ExperimentResult> rs = run::run_experiments(ps, jobs_);
    for (std::size_t i = 0; i < ps.size(); ++i) record(ps[i], rs[i]);
    return rs;
  }

  [[nodiscard]] std::size_t jobs() const { return jobs_; }

  // Record a run executed elsewhere (e.g. via a Deployment).
  void record(const workload::ExperimentParams& p,
              const workload::ExperimentResult& r) {
    runs_.push_back(workload::report::to_json(p, r));
  }

  void write() {
    if (written_) return;
    written_ = true;
    // Compare against the baseline being replaced BEFORE truncating it.
    const HostInfo host = host_info();
    const bool comparable = baseline_comparable(path_, host);
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(f,
                 "{\"schema\":\"dq.bench.v1\",\"bench\":\"%s\",\"host\":%s,"
                 "\"runs\":[",
                 name_.c_str(), host_json(host, comparable).c_str());
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      std::fprintf(f, "%s%s", i == 0 ? "" : ",", runs_[i].c_str());
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("\nwrote %s (%zu runs)\n", path_.c_str(), runs_.size());
  }

 private:
  std::string name_;
  std::string path_;
  std::size_t jobs_ = 1;
  std::vector<std::string> runs_;
  bool written_ = false;
};

}  // namespace dq::bench
