// Cross-validation of the closed-form latency model against the simulator:
// the analytical evaluation style of the paper, closed end to end.
#include <gtest/gtest.h>

#include "analysis/latency.h"
#include "workload/experiment.h"

namespace dq::workload {
namespace {

analysis::LatencyModel paper_model() { return {}; }  // 8/86/80 ms, d = 1

TEST(LatencyModel, PointValues) {
  const auto m = paper_model();
  EXPECT_DOUBLE_EQ(m.dqvl_read_hit(), 9.0);
  EXPECT_DOUBLE_EQ(m.dqvl_read_miss(), 89.0);
  EXPECT_DOUBLE_EQ(m.dqvl_write_suppress(), 170.0);
  EXPECT_DOUBLE_EQ(m.dqvl_write_through(), 250.0);
  EXPECT_DOUBLE_EQ(m.majority_read(), 87.0);
  EXPECT_DOUBLE_EQ(m.majority_write(), 174.0);
  EXPECT_DOUBLE_EQ(m.rowa_write(), 89.0);
}

TEST(LatencyModel, MatchesSimulatedBaselines) {
  const auto m = paper_model();
  for (double w : {0.1, 0.5}) {
    ExperimentParams p;
    p.write_ratio = w;
    p.requests_per_client = 300;
    p.seed = 17;

    p.protocol = "majority";
    auto r = run_experiment(p);
    EXPECT_NEAR(r.read_ms.mean(), m.majority_read(), 1.0);
    EXPECT_NEAR(r.write_ms.mean(), m.majority_write(), 2.0);

    p.protocol = "pb";
    r = run_experiment(p);
    EXPECT_NEAR(r.all_ms.mean(), m.pb_avg(w), 1.0);

    p.protocol = "rowa";
    r = run_experiment(p);
    EXPECT_NEAR(r.read_ms.mean(), m.rowa_read(), 1.0);
    EXPECT_NEAR(r.write_ms.mean(), m.rowa_write(), 1.0);

    p.protocol = "rowa-async";
    r = run_experiment(p);
    EXPECT_NEAR(r.all_ms.mean(), m.rowa_async_avg(w), 1.0);
  }
}

TEST(LatencyModel, MatchesSimulatedDqvlPathLatencies) {
  // Drive the four DQVL paths deterministically and compare point values.
  const auto m = paper_model();
  ExperimentParams p;
  p.protocol = "dqvl";
  p.requests_per_client = 200;
  p.write_ratio = 0.05;
  p.seed = 23;
  const auto r = run_experiment(p);
  // Read p50 is the hit path; max read is a miss (or lease renewal).
  EXPECT_NEAR(r.read_ms.quantile(0.50), m.dqvl_read_hit(), 1.0);
  EXPECT_GE(r.read_ms.max + 0.5, m.dqvl_read_miss());
  // Writes at 5% mostly go through (a read usually intervened).
  EXPECT_NEAR(r.write_ms.quantile(0.50), m.dqvl_write_through(), 2.0);
  // The fastest observed write is a suppress.
  EXPECT_NEAR(r.write_ms.min, m.dqvl_write_suppress(), 2.0);
}

TEST(LatencyModel, PredictsTheFig6bShape) {
  // Model-level reproduction of Figure 6(b)'s orderings.
  const auto m = paper_model();
  // Read-dominated: DQVL far below the strong baselines.
  EXPECT_LT(m.dqvl_avg(0.05), m.majority_avg(0.05) / 3.0);
  EXPECT_LT(m.dqvl_avg(0.05), m.pb_avg(0.05) / 3.0);
  // Write-dominated: DQVL within a hair of majority, above p/b and ROWA.
  EXPECT_NEAR(m.dqvl_avg(1.0), m.majority_avg(1.0), 5.0);
  EXPECT_GT(m.dqvl_avg(1.0), m.pb_avg(1.0));
  EXPECT_GT(m.dqvl_avg(1.0), m.rowa_avg(1.0));
}

TEST(LatencyModel, LocalityAdjustment) {
  const auto m = paper_model();
  // At locality 1 no change; at 0 every request pays the WAN hop delta.
  EXPECT_DOUBLE_EQ(m.with_locality(m.dqvl_read_hit(), 1.0),
                   m.dqvl_read_hit());
  EXPECT_DOUBLE_EQ(m.with_locality(m.dqvl_read_hit(), 0.0),
                   m.dqvl_read_hit() + 78.0);
  // Cross-check against the simulator (ROWA-Async isolates the hop).
  ExperimentParams p;
  p.protocol = "rowa-async";
  p.locality = 0.6;
  p.write_ratio = 0.0;
  p.requests_per_client = 600;
  p.seed = 29;
  const auto r = run_experiment(p);
  EXPECT_NEAR(r.read_ms.mean(), m.with_locality(m.rowa_async_read(), 0.6),
              3.0);
}

}  // namespace
}  // namespace dq::workload
