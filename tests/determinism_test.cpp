// Determinism: every experiment is a pure function of its seed.  This is
// what makes the figure benches reproducible and failures debuggable.
#include <gtest/gtest.h>

#include "workload/experiment.h"
#include "workload/report.h"

namespace dq::workload {
namespace {

ExperimentParams adversarial(std::uint64_t seed) {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.write_ratio = 0.35;
  p.locality = 0.8;
  p.burstiness = 0.5;
  p.requests_per_client = 80;
  p.lease_length = sim::milliseconds(900);
  p.max_drift = 0.01;
  p.loss = 0.03;
  p.topo.jitter = 0.2;
  p.seed = seed;
  p.choose_object = [](Rng& rng) { return ObjectId(rng.below(3)); };
  return p;
}

TEST(Determinism, SameSeedSameExecution) {
  const auto a = run_experiment(adversarial(1234));
  const auto b = run_experiment(adversarial(1234));
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.message_table, b.message_table);
  EXPECT_EQ(a.sim_duration, b.sim_duration);
  EXPECT_DOUBLE_EQ(a.all_ms.mean(), b.all_ms.mean());
  ASSERT_EQ(a.history.size(), b.history.size());
  auto op_b = b.history.ops().begin();
  for (const OpRecord& op_a : a.history.ops()) {
    EXPECT_EQ(op_a.invoked, op_b->invoked);
    EXPECT_EQ(op_a.completed, op_b->completed);
    EXPECT_EQ(op_a.value, op_b->value);
    EXPECT_EQ(op_a.clock, op_b->clock);
    ++op_b;
  }
}

TEST(Determinism, DifferentSeedsDiverge) {
  const auto a = run_experiment(adversarial(1));
  const auto b = run_experiment(adversarial(2));
  // Loss and jitter guarantee different schedules; message totals almost
  // surely differ.
  EXPECT_NE(a.total_messages, b.total_messages);
}

TEST(Determinism, EveryProtocolIsDeterministic) {
  for (std::string proto : paper_protocols()) {
    ExperimentParams p;
    p.protocol = proto;
    p.write_ratio = 0.2;
    p.loss = 0.02;
    p.requests_per_client = 40;
    p.seed = 99;
    const auto a = run_experiment(p);
    const auto b = run_experiment(p);
    EXPECT_EQ(a.total_messages, b.total_messages) << protocol_name(proto);
    EXPECT_DOUBLE_EQ(a.all_ms.mean(), b.all_ms.mean())
        << protocol_name(proto);
  }
}

// The strongest form of the guarantee: not just equal aggregates, but a
// byte-identical dq.report.v1 document -- every counter, histogram bucket,
// and per-node load cell -- from two independently constructed worlds.
// This is exactly what dqlint's det-* rules defend: one hash-ordered walk
// or wall-clock read anywhere in the pipeline and these strings diverge.
TEST(Determinism, ReportJsonIsByteIdenticalAcrossWorlds) {
  const ExperimentParams p = adversarial(31337);
  const auto a = run_experiment(p);
  const auto b = run_experiment(p);
  const std::string ja = report::to_json(p, a);
  const std::string jb = report::to_json(p, b);
  ASSERT_FALSE(ja.empty());
  EXPECT_EQ(ja, jb);
}

TEST(Determinism, ReportJsonDivergesAcrossSeeds) {
  const auto a = run_experiment(adversarial(7));
  const auto b = run_experiment(adversarial(8));
  EXPECT_NE(report::to_json(adversarial(7), a),
            report::to_json(adversarial(8), b));
}

}  // namespace
}  // namespace dq::workload
