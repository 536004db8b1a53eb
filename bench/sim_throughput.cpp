// Simulator throughput: how fast the substrate itself runs.
//
// Two measurements, both recorded in a dq.bench.v1 envelope
// (BENCH_sim_throughput.json, checked in as the reference baseline):
//
//   * scheduler events/sec -- raw schedule+fire throughput of the slab-pool
//     event core, plus two cancel variants: "cancel-heavy" cancels half of
//     each batch before it runs (the dead entries drain with the batch),
//     and "retry-timer" is QRPC's pattern -- every event arms a far-future
//     retry timer and cancels the one its predecessor armed, so dead
//     entries would pile up in the heap unless cancels compact it;
//   * trial-suite scaling -- a fixed 8-trial suite run through the parallel
//     runner at every jobs in {1, 2, 4, 8}, with per-point speedups (on a
//     single-hardware-thread host the table is recorded anyway, with a
//     warning: regenerate on a multi-core machine).
//
// Timing a simulator takes a wall clock, so unlike every other bench this
// one's numbers vary run to run; the dq.report.v1 documents it records (the
// serial suite's reports) stay byte-identical at any --jobs.
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "sim/scheduler.h"

using namespace dq;
using namespace dq::bench;

namespace {

double wall_ms() {
  // dqlint:allow(det-wall-clock): this bench measures real elapsed time by
  // design; the dq.report.v1 documents it emits stay seed-deterministic.
  using clk = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clk::now().time_since_epoch())
      .count();
}

// Events/sec through schedule_at + run_all in the steady state -- one
// scheduler reused across batches, the regime a real trial runs in (a World
// pushes millions of events through a single scheduler, so construction
// cost amortizes to nothing and the slab pool recycles hot slots).
// Measured over ~0.3 s.
double scheduler_events_per_sec(bool cancel_half) {
  constexpr int kBatch = 1000;
  sim::Scheduler s;
  int sink = 0;
  std::vector<sim::TimerToken> tokens;
  tokens.reserve(kBatch / 2);
  std::uint64_t fired = 0;
  const double t0 = wall_ms();
  double t1 = t0;
  while (t1 - t0 < 300.0) {
    tokens.clear();
    for (int i = 0; i < kBatch; ++i) {
      auto tok = s.schedule_at(s.now() + i, [&sink] { ++sink; });
      if (cancel_half && i % 2 == 0) tokens.push_back(tok);
    }
    for (auto& tok : tokens) tok.cancel();
    s.run_all();
    fired += kBatch;  // cancelled events count: cancel+skip is the work
    t1 = wall_ms();
  }
  return fired / ((t1 - t0) / 1000.0);
}

// Events/sec under QRPC's retry-timer pattern: kChains concurrent "calls",
// each of whose steps cancels its retry timer, arms a new one 8 s out, and
// schedules its next step a few ns later.  No retry timer ever comes due,
// so every one is cancelled.  Measured over ~0.3 s; `queued` receives the
// heap entries left at the end (live and cancelled).
double retry_timer_events_per_sec(std::size_t& queued) {
  constexpr std::size_t kChains = 1000;
  struct Chains {
    sim::Scheduler s;
    std::array<sim::TimerToken, kChains> retry{};
    std::uint64_t steps = 0;
    void step(std::size_t c) {
      retry[c].cancel();
      retry[c] = s.schedule_after(sim::seconds(8), [] {});
      ++steps;
      s.schedule_after(1 + static_cast<sim::Duration>(c % 7),
                       [this, c] { step(c); });
    }
  };
  const auto owner = std::make_unique<Chains>();
  Chains& ch = *owner;
  for (std::size_t c = 0; c < kChains; ++c) {
    ch.s.schedule_at(0, [&ch, c] { ch.step(c); });
  }
  const double t0 = wall_ms();
  double t1 = t0;
  while (t1 - t0 < 300.0) {
    ch.s.run_until(ch.s.now() + 1000);
    t1 = wall_ms();
  }
  queued = ch.s.queued_entries();
  return static_cast<double>(ch.steps) / ((t1 - t0) / 1000.0);
}

std::vector<workload::ExperimentParams> suite() {
  std::vector<workload::ExperimentParams> trials;
  for (auto proto :
       {"dqvl", "majority"}) {
    for (std::uint64_t seed : {7u, 11u, 23u, 42u}) {
      workload::ExperimentParams p;
      p.protocol = proto;
      p.write_ratio = 0.2;
      p.locality = 0.9;
      p.requests_per_client = 150;
      p.seed = seed;
      trials.push_back(p);
    }
  }
  return trials;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_sim_throughput.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0) json_path = a.substr(7);
  }
  const auto hw = static_cast<unsigned>(run::resolve_jobs(0));

  header("Throughput", "event-core and trial-suite performance");

  const double sched = scheduler_events_per_sec(/*cancel_half=*/false);
  const double sched_cancel = scheduler_events_per_sec(/*cancel_half=*/true);
  row({"scheduler", "events/sec", fmt_sci(sched)}, 16);
  row({"  50% cancelled", "events/sec", fmt_sci(sched_cancel)}, 16);
  std::size_t retry_queued = 0;
  const double sched_retry = retry_timer_events_per_sec(retry_queued);
  row({"  retry timers", "events/sec", fmt_sci(sched_retry),
       std::to_string(retry_queued) + " queued"},
      16);

  // Trial-suite scaling table: the same fixed suite at every jobs value (the
  // thread count is passed through raw, deliberately bypassing the --jobs
  // hardware clamp, so the table measures the machine as configured).
  const auto trials = suite();
  struct ScalePoint {
    std::size_t jobs;
    double ms;
    double speedup;
  };
  std::vector<ScalePoint> scale;
  std::vector<workload::ExperimentResult> serial;
  double serial_ms = 0.0;
  row({"suite (8 trials)", "jobs", "ms", "speedup"}, 16);
  for (const std::size_t j : {1u, 2u, 4u, 8u}) {
    const double t0 = wall_ms();
    auto rs = run::run_experiments(trials, j);
    const double ms = wall_ms() - t0;
    if (j == 1) {
      serial = std::move(rs);
      serial_ms = ms;
    } else {
      // Determinism check rides along: every fanned-out suite must
      // reproduce the jobs=1 reports byte for byte.
      for (std::size_t i = 0; i < trials.size(); ++i) {
        if (workload::report::to_json(trials[i], serial[i]) !=
            workload::report::to_json(trials[i], rs[i])) {
          std::fprintf(stderr, "FAIL: trial %zu differs at --jobs=%zu\n", i,
                       j);
          return 1;
        }
      }
    }
    scale.push_back({j, ms, serial_ms / ms});
    row({"", std::to_string(j), fmt(ms, 1), fmt(serial_ms / ms, 2) + "x"},
        16);
  }
  std::printf("hardware threads: %u\n", hw);
  const bool single_core = hw == 1;
  if (single_core) {
    std::fprintf(stderr,
                 "warning: this host has a single hardware thread; the "
                 "scaling table cannot show parallel speedup -- regenerate "
                 "%s on a multi-core machine\n",
                 json_path.c_str());
  }

  const HostInfo host = host_info();
  const bool comparable = baseline_comparable(json_path, host);
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
    return 0;
  }
  std::fprintf(f, "{\"schema\":\"dq.bench.v1\",\"bench\":\"sim_throughput\"");
  std::fprintf(f, ",\"host\":%s", host_json(host, comparable).c_str());
  std::fprintf(f,
               ",\"throughput\":{\"scheduler_events_per_sec\":%.0f,"
               "\"scheduler_events_per_sec_cancel_heavy\":%.0f,"
               "\"scheduler_events_per_sec_retry_timer\":%.0f,"
               "\"suite_trials\":%zu,\"suite_serial_ms\":%.1f,"
               "\"hardware_threads\":%u",
               sched, sched_cancel, sched_retry, trials.size(), serial_ms,
               hw);
  std::fprintf(f, ",\"suite_scaling\":[");
  for (std::size_t i = 0; i < scale.size(); ++i) {
    std::fprintf(f, "%s{\"jobs\":%zu,\"ms\":%.1f,\"speedup\":%.2f}",
                 i == 0 ? "" : ",", scale[i].jobs, scale[i].ms,
                 scale[i].speedup);
  }
  std::fprintf(f, "]");
  if (single_core) {
    std::fprintf(f,
                 ",\"warning\":\"single hardware thread: speedups are not "
                 "meaningful; regenerate on a multi-core machine\"");
  }
  std::fprintf(f, "}");
  std::fprintf(f, ",\"runs\":[");
  for (std::size_t i = 0; i < trials.size(); ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ",",
                 workload::report::to_json(trials[i], serial[i]).c_str());
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu runs)\n", json_path.c_str(), trials.size());
  return 0;
}
