// dqsim: command-line driver for the experiment harness.
//
// Runs any protocol over any topology/workload configuration and prints a
// result summary -- the tool to reach for when exploring configurations the
// predefined benches don't cover.
//
//   $ dqsim --protocol=dqvl --writes=0.05 --locality=0.9 --servers=9
//           --requests=500 --lease-ms=10000 --seed=7   (one line)
//   $ dqsim --protocol=dqvl --iqs=grid:3x3 --metrics-json=report.json
//   $ dqsim --protocol=majority --writes=0.5 --loss=0.05
//   $ dqsim --help
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "run/parallel_runner.h"
#include "workload/experiment.h"
#include "workload/flags.h"
#include "workload/report.h"

using namespace dq;
using namespace dq::workload;

namespace {

// Flags handled by this tool on top of the shared experiment vocabulary
// (workload/flags.h).
constexpr FlagHelp kToolFlags[] = {
    {"check", "atomic | regular: consistency check to run (default regular)"},
    {"messages", "print the per-type message table"},
    {"metrics", "print the full metrics table (counters/gauges/histograms)"},
    {"metrics-json", "write the dq.report.v1 JSON report to FILE"},
    {"trace", "print the last N protocol trace events (default 40)"},
    {"sweep", "sweep a parameter: writes|locality|burst, e.g."
              " --sweep=writes prints a table over [0,1]"},
    {"jobs", "run --sweep points on N threads (0 = one per hardware "
             "thread; output is identical at any N)"},
};

void usage() {
  std::printf("usage: dqsim [--flag=value ...]\n\n");
  for (const FlagHelp& f : experiment_flag_help()) {
    std::printf("  --%-16s %s\n", f.name, f.help);
  }
  for (const FlagHelp& f : kToolFlags) {
    std::printf("  --%-16s %s\n", f.name, f.help);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string err;
  auto flags = parse_flag_map(argc, argv, &err);
  if (!err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  if (flags.count("help") != 0) {
    usage();
    return 0;
  }
  if (auto it = flags.find("protocol");
      it != flags.end() && it->second == "help") {
    std::printf("registered protocols:\n");
    for (const protocols::ProtocolInfo* info : all_protocols()) {
      std::printf("  %-12s %-20s %-8s wal=%s crash-recovery=%s\n",
                  info->name.c_str(), info->display_name.c_str(),
                  protocols::to_string(info->caps.consistency_class),
                  info->caps.supports_wal ? "yes" : "no",
                  info->caps.supports_crash_recovery ? "yes" : "no");
    }
    return 0;
  }

  const auto params = params_from_flags(flags, &err);
  if (!params) {
    std::fprintf(stderr, "%s\n", err.c_str());
    usage();
    return 2;
  }
  const ExperimentParams& p = *params;

  // params_from_flags consumed the experiment vocabulary; whatever is left
  // must be one of this tool's own flags.
  for (const auto& [name, value] : flags) {
    bool known = false;
    for (const FlagHelp& f : kToolFlags) known = known || name == f.name;
    if (!known) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      usage();
      return 2;
    }
  }

  std::size_t jobs = 1;
  if (flags.count("jobs") != 0) {
    jobs = run::resolve_jobs(
        static_cast<std::size_t>(std::strtoul(flags["jobs"].c_str(),
                                              nullptr, 10)));
  }

  if (flags.count("sweep") != 0) {
    const std::string dim = flags["sweep"];
    if (dim != "writes" && dim != "locality" && dim != "burst") {
      std::fprintf(stderr, "--sweep expects writes|locality|burst\n");
      return 2;
    }
    const std::vector<double> points{0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0};
    std::vector<ExperimentParams> trials;
    for (double x : points) {
      ExperimentParams q = p;
      if (dim == "writes") q.write_ratio = x;
      if (dim == "locality") q.locality = x;
      if (dim == "burst") q.burstiness = x;
      trials.push_back(q);
    }
    // Sweep points are independent simulations; fan out over --jobs threads
    // and print in point order (identical output at any job count).
    const auto results = run::run_experiments(trials, jobs);
    std::printf("%-8s %10s %10s %10s %10s %10s\n", dim.c_str(), "read ms",
                "write ms", "overall", "msgs/req", "avail");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const ExperimentResult& sr = results[i];
      std::printf("%-8.2f %10.1f %10.1f %10.1f %10.1f %10.4f\n", points[i],
                  sr.read_ms.mean(), sr.write_ms.mean(), sr.all_ms.mean(),
                  sr.messages_per_request, sr.availability());
    }
    return 0;
  }

  Deployment dep(p);
  const bool tracing = flags.count("trace") > 0;
  if (tracing) dep.world().tracer().enable();
  const ExperimentResult r = dep.run();

  std::printf("protocol            %s\n", protocol_name(p.protocol));
  std::printf("requests            %llu completed, %llu rejected\n",
              static_cast<unsigned long long>(r.completed_reads +
                                              r.completed_writes),
              static_cast<unsigned long long>(r.rejected_reads +
                                              r.rejected_writes));
  std::printf("read latency (ms)   mean %.2f  p50 %.2f  p99 %.2f\n",
              r.read_ms.mean(), r.read_ms.quantile(0.50),
              r.read_ms.quantile(0.99));
  std::printf("write latency (ms)  mean %.2f  p50 %.2f  p99 %.2f\n",
              r.write_ms.mean(), r.write_ms.quantile(0.50),
              r.write_ms.quantile(0.99));
  std::printf("overall (ms)        mean %.2f\n", r.all_ms.mean());
  std::printf("availability        %.6f\n", r.availability());
  std::printf("messages/request    %.2f (%.0f bytes/request)\n",
              r.messages_per_request, r.bytes_per_request);

  const bool atomic_check =
      flags.count("check") != 0 && flags["check"] == "atomic";
  // collect() already ran the regular checker.
  const auto violations =
      atomic_check ? r.history.check_atomic() : r.violations;
  std::printf("%s check       %s\n", atomic_check ? "atomic " : "regular",
              violations.empty() ? "PASS" : "FAIL");
  for (std::size_t i = 0; i < violations.size() && i < 3; ++i) {
    std::printf("  violation: %s\n", violations[i].reason.c_str());
  }

  if (flags.count("messages") != 0) {
    std::printf("\nmessages by type:\n");
    for (const auto& [name, count] : r.message_table) {
      std::printf("  %-20s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }
  if (flags.count("metrics") != 0) {
    std::printf("\n");
    report::print_table(r, stdout);
  }
  if (flags.count("metrics-json") != 0) {
    const std::string path = flags["metrics-json"];
    if (!report::write_json(p, r, path, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  if (tracing) {
    const auto n =
        static_cast<std::size_t>(std::atof(flags["trace"].c_str()));
    std::printf("\nlast %zu protocol events:\n", n);
    dep.world().tracer().dump(std::cout, "", n == 1 ? 40 : n);
  }
  return violations.empty() ? 0 : 1;
}
