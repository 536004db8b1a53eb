// The obs metrics layer: registry semantics, histogram bucket math,
// snapshot merging, report rendering, QuorumSpec parsing, and the key
// property the whole design hangs on -- recording metrics perturbs nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "workload/experiment.h"
#include "workload/quorum_spec.h"
#include "workload/report.h"

namespace dq::workload {
namespace {

// --------------------------------------------------------------------------
// Registry semantics
// --------------------------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStableInstruments) {
  obs::MetricsRegistry reg;
  obs::Counter& c1 = reg.counter("a");
  c1.inc(3);
  // Registering more instruments must not move existing ones.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i));
  }
  obs::Counter& c2 = reg.counter("a");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 3u);
}

TEST(MetricsRegistry, GaugeTracksValueAndHighWaterMark) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("depth");
  g.add(+5);
  g.add(+2);
  g.add(-6);
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.max(), 7);
  g.set(-3);
  EXPECT_EQ(g.value(), -3);
  EXPECT_EQ(g.max(), 7);
}

// --------------------------------------------------------------------------
// Histogram buckets and quantiles
// --------------------------------------------------------------------------

// The accuracy every quantile between min and max is held to: one bucket
// width, which never exceeds 1/32 of the bucket's lower bound.
constexpr double kQuantileTolerance = 1.0 / 32;

// Nearest rank: the smallest value with at least a fraction q of all values
// at or below it.
double nearest_rank(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto k = static_cast<std::size_t>(std::ceil(q * n));
  k = std::clamp<std::size_t>(k, 1, values.size());
  return values[k - 1];
}

void expect_quantiles_near_nearest_rank(const obs::HistogramData& h,
                                        const std::vector<double>& values) {
  ASSERT_EQ(h.count, values.size());
  for (const double q : {0.50, 0.95, 0.99, 0.999}) {
    const double exact = nearest_rank(values, q);
    EXPECT_NEAR(h.quantile(q), exact, exact * kQuantileTolerance)
        << "q=" << q;
  }
}

TEST(Histogram, BucketBoundsAreContiguousAndLogLinear) {
  using HD = obs::HistogramData;
  EXPECT_EQ(HD::bucket_lower_ns(0), 0u);
  for (std::size_t i = 0; i < HD::kBuckets; ++i) {
    const std::uint64_t lower = HD::bucket_lower_ns(i);
    const std::uint64_t width = HD::bucket_width_ns(i);
    // The bucket's lower bound maps back to the bucket itself.
    EXPECT_EQ(HD::bucket_index(static_cast<double>(lower) / 1e6), i) << i;
    if (i + 1 < HD::kBuckets) {
      EXPECT_EQ(HD::bucket_lower_ns(i + 1), lower + width) << i;
    }
    if (lower >= 32) {
      EXPECT_LE(width * 32, lower) << i;
    } else {
      EXPECT_EQ(width, 1u) << i;
    }
  }
  // The last bucket ends at 2^47 ns (~39 h).
  const std::size_t last = HD::kBuckets - 1;
  EXPECT_EQ(HD::bucket_lower_ns(last) + HD::bucket_width_ns(last),
            std::uint64_t{1} << HD::kTopBits);
}

TEST(Histogram, BucketIndexSendsOutOfRangeValuesToTheEnds) {
  using HD = obs::HistogramData;
  EXPECT_EQ(HD::bucket_index(0.0), 0u);
  EXPECT_EQ(HD::bucket_index(-1.0), 0u);
  EXPECT_EQ(HD::bucket_index(1e18), HD::kBuckets - 1);
  // Just under 2^47 ns rounds up to it and still lands in the last bucket.
  EXPECT_EQ(HD::bucket_index(140737488.3552), HD::kBuckets - 1);
  // Below 2^6 ns every nanosecond has its own bucket; above, they widen.
  EXPECT_EQ(HD::bucket_index(31e-6), 31u);
  EXPECT_EQ(HD::bucket_index(63e-6), 63u);
  EXPECT_EQ(HD::bucket_index(64e-6), 64u);
  EXPECT_EQ(HD::bucket_index(65e-6), 64u);
  EXPECT_EQ(HD::bucket_index(66e-6), 65u);
}

TEST(Histogram, ObserveTracksCountSumExtrema) {
  obs::Histogram h;
  h.observe(1.0);
  h.observe(4.0);
  h.observe(0.0);
  const auto& d = h.data();
  EXPECT_EQ(d.count, 3u);
  EXPECT_DOUBLE_EQ(d.sum, 5.0);
  EXPECT_DOUBLE_EQ(d.min, 0.0);
  EXPECT_DOUBLE_EQ(d.max, 4.0);
  EXPECT_NEAR(d.mean(), 5.0 / 3.0, 1e-12);
}

TEST(Histogram, QuantilesAreExactAtExtremesAndBucketAccurateBetween) {
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(1.0);
  for (int i = 0; i < 100; ++i) h.observe(64.0);
  const auto& d = h.data();
  EXPECT_DOUBLE_EQ(d.quantile(0.0), d.min);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), d.max);
  // Each quantile lies within one bucket, 1/32 of its value, of the truth.
  EXPECT_NEAR(d.quantile(0.25), 1.0, 1.0 * kQuantileTolerance);
  EXPECT_NEAR(d.quantile(0.75), 64.0, 64.0 * kQuantileTolerance);
}

// Values spread evenly over one bucket ([98.57, 100.66) ms, 2.1 ms wide):
// interpolation places each quantile near its rank inside the bucket, not
// at an edge.
TEST(HistogramData, InterpolatesInsideABucket) {
  obs::HistogramData h;
  std::vector<double> values;
  for (int i = 0; i <= 1000; ++i) values.push_back(98.6 + 0.002 * i);
  for (const double v : values) h.add(v);
  ASSERT_EQ(obs::HistogramData::bucket_index(values.front()),
            obs::HistogramData::bucket_index(values.back()));
  for (const double q : {0.05, 0.5, 0.95}) {
    const double exact = nearest_rank(values, q);
    EXPECT_NEAR(h.quantile(q), exact, exact * 0.001) << "q=" << q;
  }
}

TEST(HistogramData, AddTracksCountMeanExtremaAndQuantiles) {
  obs::HistogramData h;
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) h.add(x);
  EXPECT_EQ(h.count, 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
  EXPECT_NEAR(h.quantile(0.5), 3.0, 3.0 * kQuantileTolerance);
}

TEST(HistogramData, EmptyIsZeroAndHoldsNoBuckets) {
  const obs::HistogramData h;
  EXPECT_EQ(h.count, 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0.0);
  EXPECT_TRUE(h.buckets.empty());
}

// Quantiles against nearest rank on 10^5 values from five shapes: a
// constant, a uniform, an exponential, DQVL's hit/miss bimodal (9 ms local
// reads, 89 ms renewals), and a heavy (Pareto, alpha 1.5) tail.
TEST(HistogramData, QuantilesTrackNearestRankOnSyntheticData) {
  const std::map<std::string, double (*)(Rng&)> shapes = {
      {"constant", [](Rng&) { return 42.0; }},
      {"uniform", [](Rng& r) { return 1000.0 * r.uniform(); }},
      {"exponential", [](Rng& r) { return r.exponential(50.0); }},
      {"bimodal", [](Rng& r) { return r.chance(0.9) ? 9.0 : 89.0; }},
      {"pareto",
       [](Rng& r) { return 1.0 / std::pow(1.0 - r.uniform(), 1.0 / 1.5); }},
  };
  for (const auto& [name, draw] : shapes) {
    SCOPED_TRACE(name);
    Rng rng(2005);
    std::vector<double> values(100000);
    obs::HistogramData h;
    for (double& v : values) {
      v = draw(rng);
      h.add(v);
    }
    expect_quantiles_near_nearest_rank(h, values);
  }
}

TEST(Histogram, LanesMergeLikeOneLaneAndIdleLanesHoldNoBuckets) {
  obs::Histogram one;
  obs::Histogram four(4);
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.exponential(20.0);
    one.observe(v);
    // Lanes 1..3 only: lane 0 never observes.
    obs::set_current_lane(static_cast<std::uint32_t>(1 + i % 3));
    four.observe(v);
  }
  obs::set_current_lane(0);
  const obs::HistogramData a = one.merged();
  const obs::HistogramData b = four.merged();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_NEAR(a.sum, b.sum, 1e-9 * a.sum);
  EXPECT_TRUE(four.data().buckets.empty());
  EXPECT_EQ(four.data().count, 0u);
}

// --------------------------------------------------------------------------
// Snapshot merge
// --------------------------------------------------------------------------

TEST(MetricsSnapshot, MergeAddsCountersAndHistogramsMaxesGauges) {
  obs::MetricsRegistry a, b;
  a.counter("c").inc(2);
  b.counter("c").inc(5);
  b.counter("only_b").inc(1);
  a.gauge("g").add(3);
  b.gauge("g").add(9);
  a.histogram("h").observe(1.0);
  b.histogram("h").observe(3.0);

  obs::MetricsSnapshot s = a.snapshot();
  s.merge(b.snapshot());
  EXPECT_EQ(s.counter("c"), 7u);
  EXPECT_EQ(s.counter("only_b"), 1u);
  EXPECT_EQ(s.counter("missing"), 0u);
  EXPECT_EQ(s.gauges.at("g").value, 9);
  EXPECT_EQ(s.gauges.at("g").max, 9);
  const obs::HistogramData* h = s.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_DOUBLE_EQ(h->sum, 4.0);
  EXPECT_DOUBLE_EQ(h->min, 1.0);
  EXPECT_DOUBLE_EQ(h->max, 3.0);
}

TEST(MetricsSnapshot, CountersWithPrefixStripsThePrefix) {
  obs::MetricsRegistry reg;
  reg.counter(obs::node_metric("iqs.load", 0)).inc(4);
  reg.counter(obs::node_metric("iqs.load", 3)).inc(9);
  reg.counter("iqs.writes").inc(1);
  const auto loads = reg.snapshot().counters_with_prefix("iqs.load.");
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_EQ(loads.at("n0"), 4u);
  EXPECT_EQ(loads.at("n3"), 9u);
}

// --------------------------------------------------------------------------
// QuorumSpec
// --------------------------------------------------------------------------

TEST(QuorumSpec, ParseRoundTripsDescribe) {
  for (const char* s : {"majority:5", "grid:3x3", "read-one:9"}) {
    const auto spec = QuorumSpec::parse(s);
    ASSERT_TRUE(spec.has_value()) << s;
    EXPECT_EQ(spec->describe(), s);
  }
  // Bare number = majority.
  const auto bare = QuorumSpec::parse("7");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->describe(), "majority:7");
  for (const char* bad : {"", "grid:9", "grid:3x", "majority:", "majority:0",
                          "ring:5", "3x3"}) {
    EXPECT_FALSE(QuorumSpec::parse(bad).has_value()) << bad;
  }
}

TEST(QuorumSpec, BuildProducesIntersectingSystems) {
  std::vector<NodeId> nine;
  for (std::uint32_t i = 0; i < 9; ++i) nine.emplace_back(i);
  for (const QuorumSpec& spec :
       {QuorumSpec::majority(9), QuorumSpec::grid(3, 3),
        QuorumSpec::read_one(9)}) {
    ASSERT_EQ(spec.size(), 9u);
    const auto sys = spec.build(nine);
    ASSERT_NE(sys, nullptr);
    const auto report = quorum::check_intersection(*sys);
    EXPECT_TRUE(report.read_write_ok) << spec.describe();
    EXPECT_TRUE(report.write_write_ok) << spec.describe();
  }
}

TEST(QuorumSpec, ParamsCarryTheSpecDirectly) {
  ExperimentParams p;
  EXPECT_EQ(p.iqs.describe(), "majority:5");  // the default spec
  p.iqs = QuorumSpec::majority(7);
  EXPECT_EQ(p.iqs.describe(), "majority:7");
  p.iqs = QuorumSpec::grid(3, 3);
  EXPECT_EQ(p.iqs.describe(), "grid:3x3");
}

// --------------------------------------------------------------------------
// End-to-end: experiments populate the snapshot; recording changes nothing
// --------------------------------------------------------------------------

ExperimentParams small_dqvl(std::uint64_t seed) {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.write_ratio = 0.3;
  p.requests_per_client = 60;
  p.loss = 0.02;
  p.lease_length = sim::milliseconds(900);
  p.seed = seed;
  p.choose_object = [](Rng& rng) { return ObjectId(rng.below(3)); };
  return p;
}

TEST(MetricsEndToEnd, DqvlRunPopulatesCoreInstruments) {
  const auto r = run_experiment(small_dqvl(5));
  const obs::MetricsSnapshot& m = r.metrics;
  EXPECT_GT(m.counter("net.sent"), 0u);
  EXPECT_GT(m.counter("net.delivered"), 0u);
  EXPECT_GT(m.counter("qrpc.calls"), 0u);
  EXPECT_GT(m.counter("iqs.writes"), 0u);
  EXPECT_GT(m.counter("oqs.read.hits") + m.counter("oqs.read.misses"), 0u);
  EXPECT_FALSE(m.counters_with_prefix("iqs.load.").empty());
  // Every completed write is classified into exactly one phase.
  const auto* sup = m.histogram("dqvl.write.suppress_ms");
  const auto* inv = m.histogram("dqvl.write.invalidate_ms");
  const auto* lw = m.histogram("dqvl.write.lease_wait_ms");
  ASSERT_NE(sup, nullptr);
  ASSERT_NE(inv, nullptr);
  ASSERT_NE(lw, nullptr);
  EXPECT_GT(sup->count + inv->count + lw->count, 0u);
  // QRPC in-flight gauge must drain back to zero by the end of the run.
  EXPECT_EQ(m.gauges.at("qrpc.inflight").value, 0);
  EXPECT_GT(m.gauges.at("qrpc.inflight").max, 0);
}

TEST(MetricsEndToEnd, BaselineRunsPopulateProtocolCounters) {
  ExperimentParams p;
  p.requests_per_client = 40;
  p.write_ratio = 0.2;
  p.seed = 11;
  p.protocol = "majority";
  EXPECT_GT(run_experiment(p).metrics.counter("proto.majority.writes"), 0u);
  p.protocol = "pb";
  EXPECT_GT(run_experiment(p).metrics.counter("proto.pb.reads"), 0u);
  p.protocol = "rowa";
  EXPECT_GT(run_experiment(p).metrics.counter("proto.rowa.reads"), 0u);
  p.protocol = "rowa-async";
  EXPECT_GT(run_experiment(p).metrics.counter("proto.rowa_async.writes"), 0u);
}

// The determinism assertion the whole layer is designed around: a run that
// snapshots / inspects metrics produces bit-for-bit the same schedule,
// timestamps, and message counts as one that never touches them.
TEST(MetricsEndToEnd, MetricsDoNotPerturbTheSimulation) {
  // Run A: plain run, ignore metrics entirely.
  const auto a = run_experiment(small_dqvl(77));

  // Run B: same seed, but aggressively exercise the metrics surface
  // mid-run (snapshots allocate, quantiles do float math -- none of it may
  // touch the event schedule).
  Deployment dep(small_dqvl(77));
  dep.start_clients();
  obs::MetricsSnapshot probe;
  while (!dep.clients_done()) {
    dep.world().run_for(sim::seconds(1));  // same stepping as run()
    probe = dep.world().metrics().snapshot();
    for (const auto& [name, h] : probe.histograms) {
      (void)h.quantile(0.5);
    }
  }
  const auto b = dep.collect();

  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.message_table, b.message_table);
  ASSERT_EQ(a.history.size(), b.history.size());
  auto op_b = b.history.ops().begin();
  for (const OpRecord& op_a : a.history.ops()) {
    EXPECT_EQ(op_a.invoked, op_b->invoked);
    EXPECT_EQ(op_a.completed, op_b->completed);
    ++op_b;
  }
  // And the metric streams themselves are reproducible.
  EXPECT_EQ(a.metrics.counters, b.metrics.counters);
}

// --------------------------------------------------------------------------
// Report rendering
// --------------------------------------------------------------------------

TEST(Report, JsonContainsTheSchemaSections) {
  const auto p = small_dqvl(3);
  const auto r = run_experiment(p);
  const std::string json = report::to_json(p, r);
  for (const char* needle :
       {"\"schema\":\"dq.report.v1\"", "\"protocol\":\"DQVL\"",
        "\"iqs\":\"majority:5\"", "\"latency_ms\"", "\"write_phases\"",
        "\"suppress\"", "\"invalidate\"", "\"lease_wait\"", "\"iqs_load\"",
        "\"metrics\"", "\"sim_duration_ms\"", "\"violations\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

// The JSON object that follows `"key":` in `json` (the report puts no
// braces inside strings, so counting them finds its end).
std::string json_object(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":{");
  if (at == std::string::npos) return "{}";
  const std::size_t begin = at + key.size() + 3;
  int depth = 0;
  for (std::size_t i = begin; i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0) {
      return json.substr(begin, i - begin + 1);
    }
  }
  return "{}";
}

// The integer members at the top level of the JSON object `obj` (nested
// objects skipped): {"a":1,"b":{"c":2}} -> {a: 1}.
std::map<std::string, std::uint64_t> json_counts(const std::string& obj) {
  std::map<std::string, std::uint64_t> out;
  int depth = 0;
  for (std::size_t i = 0; i < obj.size(); ++i) {
    if (obj[i] == '{') ++depth;
    if (obj[i] == '}') --depth;
    if (obj[i] != '"' || depth != 1) continue;
    const std::size_t end = obj.find('"', i + 1);
    if (end == std::string::npos || end + 2 >= obj.size()) break;
    const std::string key = obj.substr(i + 1, end - i - 1);
    i = end;
    const auto next = static_cast<unsigned char>(obj[i + 2]);
    if (obj[i + 1] == ':' && std::isdigit(next) != 0) {
      out[key] = std::strtoull(obj.c_str() + i + 2, nullptr, 10);
    }
  }
  return out;
}

// The report's two message views -- the messages section and the net.*
// counters in the metrics section -- are one accounting, on the
// one-partition plan (--world-threads 0) and on a multi-partition one.
TEST(Report, MessageSectionMatchesNetCounters) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    auto p = small_dqvl(11);  // with message loss
    p.world_threads = threads;
    const std::string json = report::to_json(p, run_experiment(p));
    const std::string messages = json_object(json, "messages");
    const auto totals = json_counts(messages);
    const auto counters =
        json_counts(json_object(json_object(json, "metrics"), "counters"));
    const std::uint64_t sent = counters.at("net.sent");
    const std::uint64_t bytes = counters.at("net.bytes");
    ASSERT_GT(sent, 0u);
    EXPECT_GT(counters.at("net.dropped"), 0u);
    EXPECT_EQ(totals.at("total"), sent);
    EXPECT_EQ(totals.at("bytes"), bytes);
    const auto types = json_counts(json_object(messages, "by_type"));
    std::uint64_t by_type = 0;
    for (const auto& [type, n] : types) by_type += n;
    EXPECT_EQ(by_type, sent);
    std::uint64_t link_msgs = 0;
    std::uint64_t link_bytes = 0;
    for (const auto& [name, n] : counters) {
      if (name.rfind("net.msgs.", 0) == 0) link_msgs += n;
      if (name.rfind("net.bytes.", 0) == 0) link_bytes += n;
    }
    EXPECT_EQ(link_msgs, sent);
    EXPECT_EQ(link_bytes, bytes);
  }
}

// Every latency_ms quantile is within one bucket of nearest rank over the
// op records behind it, on a lossy DQVL run with hits, misses and writes;
// count, mean and extremes are exact.
TEST(Report, LatencyQuantilesTrackNearestRankOverTheHistory) {
  auto p = small_dqvl(21);
  p.requests_per_client = 400;
  const auto r = run_experiment(p);
  std::vector<double> reads, writes, all;
  double sum = 0.0;
  for (const OpRecord& op : r.history.ops()) {
    if (!op.ok) continue;
    const double ms = sim::to_ms(op.completed - op.invoked);
    (op.kind == msg::OpKind::kRead ? reads : writes).push_back(ms);
    all.push_back(ms);
    sum += ms;
  }
  ASSERT_GT(reads.size(), 500u);
  ASSERT_GT(writes.size(), 200u);
  expect_quantiles_near_nearest_rank(r.read_ms, reads);
  expect_quantiles_near_nearest_rank(r.write_ms, writes);
  expect_quantiles_near_nearest_rank(r.all_ms, all);
  EXPECT_EQ(r.all_ms.mean(), sum / static_cast<double>(all.size()));
  EXPECT_EQ(r.all_ms.min, *std::min_element(all.begin(), all.end()));
  EXPECT_EQ(r.all_ms.max, *std::max_element(all.begin(), all.end()));
}

}  // namespace
}  // namespace dq::workload
