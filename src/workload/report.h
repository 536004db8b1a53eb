// Run reports: render an ExperimentResult (plus the params that produced it)
// as JSON or as a human-readable metrics table.
//
// The JSON schema is versioned as "dq.report.v1" and validated by
// tools/check_metrics_schema.py; the interesting sections:
//
//   schema          "dq.report.v1"
//   protocol        protocol_name() string
//   config          the experiment knobs, incl. the IQS QuorumSpec string
//   requests        completed/rejected read and write counts
//   availability    fraction of requests completed
//   latency_ms      read/write/all op latencies; like every histogram below,
//                   count, mean, min, max and p50/95/99 (quantiles from
//                   obs::HistogramData: within 1/32 of the nearest rank)
//   messages        totals, per-request rates, per-type table
//   write_phases    DQVL write-latency breakdown: suppress / invalidate /
//                   lease_wait histograms (empty object for baselines)
//   iqs_load        per-IQS-node request counters, keyed "n<id>"
//   metrics         full registry dump (counters, gauges, histograms)
//   sim_duration_ms virtual time consumed
//   violations      consistency-check violation count
#pragma once

#include <cstdio>
#include <string>

#include "workload/experiment.h"

namespace dq::workload::report {

// The full JSON document (no trailing newline).
[[nodiscard]] std::string to_json(const ExperimentParams& params,
                                  const ExperimentResult& result);

// Write to_json() to `path`.  Returns false and sets *error on I/O failure.
bool write_json(const ExperimentParams& params, const ExperimentResult& result,
                const std::string& path, std::string* error);

// Human-readable dump of result.metrics (the --metrics table in dqsim).
void print_table(const ExperimentResult& result, std::FILE* out);

}  // namespace dq::workload::report
