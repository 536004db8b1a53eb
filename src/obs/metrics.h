// Deterministic, simulation-safe metrics: named counters, gauges, and
// log-linear latency histograms (quantiles within 1/32 of the true value).
//
// Design constraints (DESIGN.md "Observability"):
//   * No wall clock.  Every recorded duration is virtual (sim::Time math done
//     by the caller); the registry itself never reads any clock.
//   * No perturbation.  Recording a metric schedules no events, draws no
//     randomness, and sends no messages, so enabling or inspecting metrics
//     cannot change a simulation schedule (determinism_test relies on this).
//   * No allocation on the hot path.  Actors look up their instruments once
//     (by name, at registration/construction time) and then update plain
//     integers; a histogram lane allocates its buckets once, on its first
//     observation.  Instrument addresses are stable for the registry's
//     lifetime.
//
// One MetricsRegistry lives in each sim::World; snapshot() freezes every
// instrument into a MetricsSnapshot that the experiment harness folds into
// its ExperimentResult and renders as JSON (workload/report.h).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dq::obs {

// --- lanes -----------------------------------------------------------------
// The parallel world engine (sim/parallel_world.h) runs several partitions of
// one simulation concurrently, and actors in different partitions share named
// instruments (protocol code caches an instrument pointer at construction).
// Instead of per-partition registries, every instrument can carry one *lane*
// per partition: updates go to the calling partition's private lane (no
// cross-thread writes), and snapshot() folds lanes together in fixed lane
// order, so the rendered values are identical at any thread count.  A
// registry created without set_lanes() has exactly one lane and the exact
// pre-lane behavior (and cost: the hot path tests one empty-vector branch).
//
// The current lane is ambient per-thread state owned by the engine; lane 0 is
// the default everywhere else, including the coordinating thread and every
// one-partition simulation.
namespace detail {
// Defined in metrics.cpp; exposed here only so current_lane() inlines to a
// single thread-local read (it sits inside every counter/histogram update
// on the message hot path -- an out-of-line call per update is measurable).
extern thread_local std::uint32_t t_current_lane;
}  // namespace detail

[[nodiscard]] inline std::uint32_t current_lane() {
  return detail::t_current_lane;
}
inline void set_current_lane(std::uint32_t lane) {
  detail::t_current_lane = lane;
}

// Monotone event count.
class Counter {
 public:
  Counter() = default;
  explicit Counter(std::uint32_t lanes) {
    if (lanes > 1) extra_.assign(lanes - 1, 0);
  }

  void inc(std::uint64_t delta = 1) {
    if (extra_.empty()) {
      value_ += delta;
      return;
    }
    const std::uint32_t lane = current_lane();
    (lane == 0 ? value_ : extra_[lane - 1]) += delta;
  }
  // Sum over lanes; call only while no partition is mid-round.
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t v = value_;
    for (const std::uint64_t e : extra_) v += e;
    return v;
  }

 private:
  std::uint64_t value_ = 0;              // lane 0
  std::vector<std::uint64_t> extra_;     // lanes 1..N-1
};

// Instantaneous level (queue depth, in-flight calls) with a high-water mark.
// With lanes, each partition tracks its own level; the reported value is the
// sum of lane levels and the reported max the sum of lane maxima (an upper
// bound on the true global high-water mark -- exact in the serial case).
class Gauge {
 public:
  Gauge() = default;
  explicit Gauge(std::uint32_t lanes) {
    if (lanes > 1) extra_.assign(lanes - 1, Cell{});
  }

  void set(std::int64_t v) {
    Cell& c = cell();
    c.value = v;
    if (v > c.max) c.max = v;
  }
  void add(std::int64_t delta) {
    Cell& c = cell();
    c.value += delta;
    if (c.value > c.max) c.max = c.value;
  }
  [[nodiscard]] std::int64_t value() const {
    std::int64_t v = cell0_.value;
    for (const Cell& c : extra_) v += c.value;
    return v;
  }
  [[nodiscard]] std::int64_t max() const {
    std::int64_t m = cell0_.max;
    for (const Cell& c : extra_) m += c.max;
    return m;
  }

 private:
  struct Cell {
    std::int64_t value = 0;
    std::int64_t max = 0;
  };
  [[nodiscard]] Cell& cell() {
    if (extra_.empty()) return cell0_;
    const std::uint32_t lane = current_lane();
    return lane == 0 ? cell0_ : extra_[lane - 1];
  }

  Cell cell0_;               // lane 0
  std::vector<Cell> extra_;  // lanes 1..N-1
};

// A latency distribution in milliseconds: exact count, sum, min and max,
// plus log-linear buckets for quantiles.  The one aggregator every latency
// in a report comes from -- live histograms, snapshots, and the
// latency_ms section alike.
struct HistogramData {
  // HdrHistogram-style buckets (http://hdrhistogram.org) over integer
  // nanoseconds.  Values below 2^kSubBits ns get one bucket each; above
  // that, each power of two [2^k, 2^(k+1)) splits into 2^kSubBits equal
  // sub-buckets of width 2^(k - kSubBits), so no bucket is wider than 1/32
  // of its lower bound.  Values at or below zero (the zero-duration
  // "suppressed write" fast path) land in bucket 0, and values of 2^kTopBits
  // ns (~39 simulated hours) or more in the last bucket.
  static constexpr int kSubBits = 5;
  static constexpr int kTopBits = 47;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets =
      (kTopBits - kSubBits + 1) * kSubBuckets;

  // The bucket holding v_ms, in O(1) from its nanosecond count.
  [[nodiscard]] static std::size_t bucket_index(double v_ms);
  // Bucket i holds the integer nanoseconds [lower, lower + width).
  [[nodiscard]] static std::uint64_t bucket_lower_ns(std::size_t i);
  [[nodiscard]] static std::uint64_t bucket_width_ns(std::size_t i);

  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> buckets;  // kBuckets entries from the first add

  void add(double v_ms);
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  // Quantile estimate, q in [0, 1]: walk to the bucket holding the
  // ceil(q * count)-th smallest value and interpolate linearly inside it,
  // clamped to [min, max].  q <= 0 gives min and q >= 1 max exactly;
  // elsewhere the estimate is within one bucket width (1/32 of the value,
  // exact below 64 ns) of the nearest-rank sample: the smallest value with
  // at least a fraction q of all values at or below it.
  [[nodiscard]] double quantile(double q) const;
  void merge(const HistogramData& other);
};

// Live histogram of durations in milliseconds.  A lane's bucket array is
// allocated by its first observe(), so lanes that never observe cost
// nothing but their counters.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::uint32_t lanes) {
    if (lanes > 1) extra_.resize(lanes - 1);
  }

  void observe(double v_ms) { lane_data().add(v_ms); }
  // Lane 0 only -- the whole story for serial registries.
  [[nodiscard]] const HistogramData& data() const { return data_; }
  // All lanes folded together in lane order (what snapshots render).
  [[nodiscard]] HistogramData merged() const;

 private:
  [[nodiscard]] HistogramData& lane_data() {
    if (extra_.empty()) return data_;
    const std::uint32_t lane = current_lane();
    return lane == 0 ? data_ : extra_[lane - 1];
  }

  HistogramData data_;                // lane 0
  std::vector<HistogramData> extra_;  // lanes 1..N-1
};

struct GaugeSnapshot {
  std::int64_t value = 0;
  std::int64_t max = 0;
};

// Value-type freeze of a registry: what ExperimentResult carries and the JSON
// report renders.  merge() combines snapshots from independent worlds (e.g. a
// bench aggregating over seeds): counters and histograms add, gauges keep
// the maximum (levels from different runs do not sum meaningfully).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, HistogramData> histograms;

  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  [[nodiscard]] const HistogramData* histogram(const std::string& name) const;
  // All counters whose name starts with `prefix`, keyed by the remainder
  // (e.g. prefix "iqs.load." yields {"n0": 12, "n3": 40, ...}).
  [[nodiscard]] std::map<std::string, std::uint64_t> counters_with_prefix(
      const std::string& prefix) const;
  void merge(const MetricsSnapshot& other);
  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Give every instrument registered from here on `n` lanes (one per world
  // partition).  Must be called before any instrument exists -- the world
  // sets it up front, before protocol construction registers anything.
  void set_lanes(std::uint32_t n);
  [[nodiscard]] std::uint32_t lanes() const { return lanes_; }

  // Find-or-create by name.  References stay valid for the registry's
  // lifetime; call once at setup, keep the pointer, update it on the hot
  // path.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::uint32_t lanes_ = 1;
  // node_maps keep instrument addresses stable across later registrations.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Canonical per-node instrument name: "iqs.load" + n3 -> "iqs.load.n3".
[[nodiscard]] std::string node_metric(const std::string& base,
                                      std::uint32_t node);

}  // namespace dq::obs
