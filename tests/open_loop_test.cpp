// Open-loop workload engine (workload/open_loop.h): statistical checks on
// the samplers (alias-table Zipf vs the closed-form pmf, thinning vs the
// integrated sinusoid rate), the flash-crowd hot-set remap, drain-time
// failure accounting, and byte-identical determinism across --jobs and
// --world-threads pinned to a checked-in golden report.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "run/parallel_runner.h"
#include "workload/experiment.h"
#include "workload/open_loop.h"
#include "workload/report.h"

namespace dq::workload {
namespace {

// ---------------------------------------------------------------------------
// Zipf alias table

TEST(ZipfAliasTable, PmfMatchesClosedForm) {
  const ZipfAliasTable z(1.2, 16);
  double total = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) total += z.pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-12);
  // pmf ratio between ranks i and j is ((j+1)/(i+1))^s by definition.
  EXPECT_NEAR(z.pmf(0) / z.pmf(1), std::pow(2.0, 1.2), 1e-9);
  EXPECT_NEAR(z.pmf(3) / z.pmf(7), std::pow(2.0, 1.2), 1e-9);
}

TEST(ZipfAliasTable, ChiSquareAgainstPmf) {
  // 200k one-u64-draw samples from Zipf(1.0, 64) against the closed-form
  // pmf.  df = 63; the 99.9th percentile of chi2(63) is ~103.4, so a bound
  // of 110 fails with probability well under 1e-3 if the sampler is right
  // (and the seed is fixed, so the test is deterministic anyway).
  constexpr std::size_t kN = 64;
  constexpr std::size_t kDraws = 200000;
  const ZipfAliasTable z(1.0, kN);
  Rng rng(12345);
  std::vector<std::uint64_t> counts(kN, 0);
  for (std::size_t d = 0; d < kDraws; ++d) {
    const std::uint64_t i = z.sample(rng);
    ASSERT_LT(i, kN);
    ++counts[i];
  }
  double chi2 = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double expected = z.pmf(i) * kDraws;
    ASSERT_GT(expected, 5.0) << "bucket too small for chi-square at " << i;
    const double diff = counts[i] - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 110.0) << "chi2=" << chi2;
  // Rank 0 must dominate: Zipf(1.0, 64) puts ~21% of mass on the head.
  EXPECT_GT(counts[0], counts[kN - 1] * 10);
}

TEST(ZipfAliasTable, SampleManyMatchesSequentialSamples) {
  // The batched (prefetching) path must consume the rng stream and produce
  // results exactly as the per-draw path does: the emission fast path relies
  // on this to keep reports byte-identical.
  const ZipfAliasTable table(0.99, 4096);
  Rng a(42);
  Rng b(42);
  std::vector<std::uint64_t> batched;
  table.sample_many(a, 1000, batched);
  ASSERT_EQ(batched.size(), 1000u);
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], table.sample(b)) << "draw " << i;
  }
  EXPECT_EQ(a(), b()) << "rng streams diverged after the batch";
}

TEST(ZipfAliasTable, DegenerateSizes) {
  const ZipfAliasTable one(0.99, 1);
  Rng rng(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(one.sample(rng), 0u);
  EXPECT_NEAR(one.pmf(0), 1.0, 1e-12);
  // s = 0 degenerates to uniform.
  const ZipfAliasTable flat(0.0, 8);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(flat.pmf(i), 0.125, 1e-12);
}

// ---------------------------------------------------------------------------
// Hot set

TEST(HotSet, EvictsLeastRecentlyTouched) {
  HotSet hot(2);
  EXPECT_TRUE(hot.empty());
  hot.touch(10);
  hot.touch(20);
  hot.touch(30);  // evicts 10
  hot.touch(20);  // refresh, no growth
  Rng rng(1);
  for (int i = 0; i < 64; ++i) {
    const auto obj = hot.pick(rng);
    EXPECT_TRUE(obj == 20 || obj == 30) << obj;
  }
}

// ---------------------------------------------------------------------------
// Nonhomogeneous Poisson thinning

TEST(RateModel, SinusoidEmpiricalRate) {
  // base 2000 Hz, 60% diurnal swing, 4 s period, drawn over two full
  // periods.  Per-1s-bucket counts must track the integrated rate within
  // 10% and the total within 3% (counts are ~2000/bucket, sd ~45, so these
  // bounds have huge margin at a fixed seed).
  const double base = 2000.0, amp = 0.6;
  const sim::Duration period = sim::seconds(4);
  const RateModel model(base, amp, period, std::nullopt);
  Rng rng(99);
  std::vector<sim::Time> arrivals;
  model.draw_arrivals(rng, 0, sim::seconds(8), arrivals);
  ASSERT_FALSE(arrivals.empty());
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    ASSERT_LE(arrivals[i - 1], arrivals[i]) << "arrivals not sorted";
  }
  const double period_s = sim::to_ms(period) / 1e3;
  auto integral = [&](double a, double b) {
    constexpr double kTwoPi = 6.283185307179586;
    return base * ((b - a) -
                   amp * period_s / kTwoPi *
                       (std::cos(kTwoPi * b / period_s) -
                        std::cos(kTwoPi * a / period_s)));
  };
  std::vector<std::size_t> bucket(8, 0);
  for (const sim::Time t : arrivals) {
    const auto b = static_cast<std::size_t>(t / sim::seconds(1));
    ASSERT_LT(b, bucket.size());
    ++bucket[b];
  }
  double total_expected = 0.0;
  for (std::size_t b = 0; b < bucket.size(); ++b) {
    const double expected =
        integral(static_cast<double>(b), static_cast<double>(b) + 1.0);
    total_expected += expected;
    EXPECT_NEAR(static_cast<double>(bucket[b]), expected, 0.10 * expected)
        << "bucket " << b;
  }
  EXPECT_NEAR(static_cast<double>(arrivals.size()), total_expected,
              0.03 * total_expected);
}

TEST(RateModel, FlashCrowdMultipliesRate) {
  FlashCrowd flash;
  flash.start = sim::seconds(2);
  flash.duration = sim::seconds(1);
  flash.multiplier = 4.0;
  const RateModel model(1000.0, 0.0, sim::seconds(60), flash);
  EXPECT_DOUBLE_EQ(model.rate_at(sim::seconds(1)), 1000.0);
  EXPECT_DOUBLE_EQ(model.rate_at(sim::seconds(2)), 4000.0);
  EXPECT_DOUBLE_EQ(model.rate_at(sim::seconds(3)), 1000.0);
  EXPECT_DOUBLE_EQ(model.max_rate(0, sim::seconds(1)), 1000.0);
  EXPECT_DOUBLE_EQ(model.max_rate(0, sim::seconds(8)), 4000.0);
  Rng rng(5);
  std::vector<sim::Time> before, during;
  model.draw_arrivals(rng, sim::seconds(1), sim::seconds(2), before);
  model.draw_arrivals(rng, sim::seconds(2), sim::seconds(3), during);
  EXPECT_NEAR(static_cast<double>(before.size()), 1000.0, 100.0);
  EXPECT_NEAR(static_cast<double>(during.size()), 4000.0, 300.0);
}

TEST(RateModel, ExpectedArrivalsIntegratesTheRate) {
  // The diurnal integral, over whole and partial periods.
  const double base = 2000.0, amp = 0.6;
  const RateModel wave(base, amp, sim::seconds(4), std::nullopt);
  auto integral = [&](double a, double b) {  // seconds
    constexpr double kTwoPi = 6.283185307179586;
    return base * ((b - a) - amp * 4.0 / kTwoPi *
                                 (std::cos(kTwoPi * b / 4.0) -
                                  std::cos(kTwoPi * a / 4.0)));
  };
  EXPECT_NEAR(wave.expected_arrivals(0, sim::seconds(8)), 16000.0, 1e-6);
  EXPECT_NEAR(wave.expected_arrivals(0, sim::seconds(1)), integral(0, 1),
              1e-6);
  EXPECT_NEAR(wave.expected_arrivals(sim::milliseconds(2500), sim::seconds(7)),
              integral(2.5, 7.0), 1e-6);
  EXPECT_EQ(wave.expected_arrivals(sim::seconds(3), sim::seconds(3)), 0.0);
  // A flash multiplies the rate only where it overlaps the interval.
  FlashCrowd flash;
  flash.start = sim::seconds(2);
  flash.duration = sim::seconds(1);
  flash.multiplier = 4.0;
  const RateModel spiky(1000.0, 0.0, sim::seconds(60), flash);
  EXPECT_NEAR(spiky.expected_arrivals(0, sim::seconds(8)), 11000.0, 1e-6);
  EXPECT_NEAR(spiky.expected_arrivals(sim::milliseconds(2500), sim::seconds(4)),
              3000.0, 1e-6);
  EXPECT_NEAR(spiky.expected_arrivals(0, sim::seconds(1)), 1000.0, 1e-6);
}

TEST(SiteGenerator, ReservesItsExpectedHistoryOnlyWhenTrackingReplies) {
  // 1 000 clients at 1 Hz for 2 s: 2 000 expected arrivals, reserved with
  // four standard deviations of headroom when replies are tracked; a
  // fire-and-forget generator records nothing and reserves nothing.
  for (const bool track : {true, false}) {
    sim::Topology::Params tp;
    tp.num_servers = 1;
    tp.num_clients = 1;
    sim::World w{sim::Topology(tp), 1};
    SiteGenerator::Params p;
    p.ol.clients_per_site = 1000;
    p.ol.client_rate_hz = 1.0;
    p.ol.objects = 16;
    p.ol.horizon = sim::seconds(2);
    p.ol.track_replies = track;
    SiteGenerator g(p);
    w.attach(w.topology().client(0), g);
    g.start();
    const std::size_t want =
        track ? static_cast<std::size_t>(
                    std::ceil(2000.0 + 4.0 * std::sqrt(2000.0)))
              : 0;
    EXPECT_EQ(g.history().capacity(), want) << "track=" << track;
  }
}

// ---------------------------------------------------------------------------
// End-to-end open-loop trials

ExperimentParams open_loop_params() {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.topo.num_servers = 6;
  p.topo.num_clients = 3;  // three edge sites
  p.topo.jitter = 0.1;
  p.iqs = QuorumSpec::majority(5);
  p.write_ratio = 0.2;
  p.locality = 0.9;
  p.loss = 0.01;
  p.seed = 7;
  OpenLoopParams ol;
  ol.clients_per_site = 1000;
  ol.client_rate_hz = 0.1;  // 100 Hz per site
  ol.zipf_s = 0.9;
  ol.objects = 256;
  // Default 60 s diurnal period: the amplitude still disables the
  // constant-rate fast path, and these params stay expressible as dqsim
  // flags (the golden below regenerates via dqsim --metrics-json).
  ol.diurnal_amplitude = 0.4;
  FlashCrowd flash;
  flash.start = sim::milliseconds(500);
  flash.duration = sim::milliseconds(500);
  flash.multiplier = 4.0;
  ol.flash = flash;
  ol.horizon = sim::seconds(2);
  p.open_loop = ol;
  return p;
}

std::string report_at(ExperimentParams p, std::size_t world_threads) {
  p.world_threads = world_threads;
  const auto result = run_experiment(p);
  return report::to_json(p, result);
}

TEST(OpenLoop, ByteIdenticalAcrossWorldThreadsAndJobs) {
  const ExperimentParams base = open_loop_params();
  const std::string reference = report_at(base, 1);
  for (const std::size_t threads : {2u, 4u}) {
    EXPECT_EQ(report_at(base, threads), reference)
        << "--world-threads=" << threads << " changed the report";
  }
  // Inter-trial parallelism: the same two trials through the parallel
  // runner at --jobs 1 and 4 must agree byte for byte.
  ExperimentParams second = base;
  second.seed = 11;
  const std::vector<ExperimentParams> trials{base, second};
  const auto at1 = run::run_experiments(trials, 1);
  const auto at4 = run::run_experiments(trials, 4);
  ASSERT_EQ(at1.size(), 2u);
  ASSERT_EQ(at4.size(), 2u);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(report::to_json(trials[i], at1[i]),
              report::to_json(trials[i], at4[i]))
        << "trial " << i << " differs at --jobs=4";
  }
}

TEST(OpenLoop, GoldenReport) {
  // Pins the full dq.report.v1 bytes of the canonical open-loop trial
  // (diurnal + flash crowd + loss, 3 sites x 1000 logical clients).  An
  // intentional change to arrival sampling, emission order, or report
  // rendering must regenerate tests/golden/report_openloop_seed7.json.
  const std::string doc = report_at(open_loop_params(), 4);
  std::ifstream in(std::string(DQ_GOLDEN_DIR) +
                   "/report_openloop_seed7.json");
  ASSERT_TRUE(in.good()) << "golden file missing";
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(doc + "\n", buf.str());
}

TEST(OpenLoop, OfferedEqualsCompletedPlusFailed) {
  ExperimentParams p = open_loop_params();
  p.loss = 0.3;  // heavy loss: drain must mark the survivors failed
  auto ol = *p.open_loop;
  ol.horizon = sim::seconds(1);
  ol.drain = sim::seconds(5);
  p.open_loop = ol;
  const auto result = run_experiment(p);
  const auto offered = result.metrics.counter("open_loop.offered");
  const auto completed = result.metrics.counter("open_loop.completed");
  const auto failed = result.metrics.counter("open_loop.failed");
  EXPECT_GT(offered, 0u);
  EXPECT_GT(failed, 0u) << "30% loss with no retransmit must fail requests";
  EXPECT_EQ(offered, completed + failed);
  EXPECT_EQ(result.history.size(), offered);
}

TEST(OpenLoop, LosslessRunCompletesEverything) {
  ExperimentParams p = open_loop_params();
  p.loss = 0.0;
  p.topo.jitter = 0.0;
  const auto result = run_experiment(p);
  const auto offered = result.metrics.counter("open_loop.offered");
  EXPECT_GT(offered, 0u);
  EXPECT_EQ(result.metrics.counter("open_loop.completed"), offered);
  EXPECT_EQ(result.metrics.counter("open_loop.failed"), 0u);
  EXPECT_TRUE(result.history.check_regular().empty());
}

// Every field of every record, in order.
std::string dump(const History& h) {
  std::ostringstream os;
  for (const OpRecord& op : h.ops()) {
    os << op.client << ' ' << static_cast<int>(op.kind) << ' ' << op.ok << ' '
       << op.object << ' ' << op.invoked << ' ' << op.completed << ' '
       << op.value << ' ' << op.clock << '\n';
  }
  return os.str();
}

TEST(Collect, SharesTheSitesRecordsAndRepeats) {
  const ExperimentParams p = open_loop_params();
  Deployment dep(p);
  const ExperimentResult first = dep.run();
  const ExperimentResult second = dep.collect();
  EXPECT_EQ(report::to_json(p, first), report::to_json(p, second));
  ASSERT_GT(dep.site(0).history().size(), 0u);
  const OpRecord* own = &*dep.site(0).history().ops().begin();
  EXPECT_EQ(&*first.history.ops().begin(), own) << "collect copied records";
  EXPECT_EQ(&*second.history.ops().begin(), own);
}

TEST(Collect, MidRunCollectIsFrozenAndTheFinalOneMatchesAOneShotRun) {
  const ExperimentParams p = open_loop_params();
  Deployment dep(p);
  dep.start_clients();
  dep.world().run_for(sim::seconds(1));
  const ExperimentResult mid = dep.collect();
  const std::string mid_ops = dump(mid.history);
  ASSERT_GT(mid.history.size(), 0u);
  while (!dep.clients_done()) dep.world().run_for(sim::seconds(1));
  EXPECT_EQ(dump(mid.history), mid_ops) << "the run rewrote a shared record";
  const ExperimentResult end = dep.collect();
  EXPECT_GT(end.history.size(), mid.history.size());
  EXPECT_EQ(report::to_json(p, end), report_at(p, 0));
}

TEST(OpenLoop, PerSiteCountersCoverAllSites) {
  const auto result = run_experiment(open_loop_params());
  const auto per_site = result.metrics.counters_with_prefix("site.offered.");
  ASSERT_EQ(per_site.size(), 3u);
  std::uint64_t sum = 0;
  for (const auto& [site, count] : per_site) {
    EXPECT_GT(count, 0u) << "site " << site << " emitted nothing";
    sum += count;
  }
  EXPECT_EQ(sum, result.metrics.counter("open_loop.offered"));
}

}  // namespace
}  // namespace dq::workload
