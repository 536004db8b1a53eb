#include "obs/metrics.h"

#include <algorithm>

namespace dq::obs {

namespace detail {
// The calling partition's lane.  Lane 0 outside a partition step, so every
// one-partition simulation (and all setup-time registration on the main
// thread) behaves exactly as before lanes existed.
thread_local std::uint32_t t_current_lane = 0;
}  // namespace detail

double HistogramData::bucket_upper_ms(std::size_t i) {
  double ub = kFirstUpperMs;
  for (std::size_t k = 0; k < i; ++k) ub *= 2.0;
  return ub;
}

std::size_t HistogramData::bucket_index(double v_ms) {
  std::size_t i = 0;
  double ub = kFirstUpperMs;
  while (v_ms > ub && i + 1 < kBuckets) {
    ub *= 2.0;
    ++i;
  }
  return i;
}

double HistogramData::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (static_cast<double>(seen) >= target) {
      // Clamp the bucket upper bound into the observed range so estimates
      // never exceed the true extremes.
      return std::clamp(bucket_upper_ms(i), min, max);
    }
  }
  return max;
}

void HistogramData::merge(const HistogramData& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  if (buckets.size() < other.buckets.size()) buckets.resize(other.buckets.size(), 0);
  for (std::size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

HistogramData Histogram::merged() const {
  HistogramData out = data_;
  for (const HistogramData& d : extra_) out.merge(d);
  return out;
}

void Histogram::observe(double v_ms) {
  HistogramData& d = lane_data();
  if (d.count == 0) {
    d.min = v_ms;
    d.max = v_ms;
  } else {
    d.min = std::min(d.min, v_ms);
    d.max = std::max(d.max, v_ms);
  }
  ++d.count;
  d.sum += v_ms;
  ++d.buckets[HistogramData::bucket_index(v_ms)];
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

const HistogramData* MetricsSnapshot::histogram(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

std::map<std::string, std::uint64_t> MetricsSnapshot::counters_with_prefix(
    const std::string& prefix) const {
  std::map<std::string, std::uint64_t> out;
  for (auto it = counters.lower_bound(prefix); it != counters.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace(it->first.substr(prefix.size()), it->second);
  }
  return out;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, g] : other.gauges) {
    GaugeSnapshot& mine = gauges[name];
    mine.value = std::max(mine.value, g.value);
    mine.max = std::max(mine.max, g.max);
  }
  for (const auto& [name, h] : other.histograms) histograms[name].merge(h);
}

void MetricsRegistry::set_lanes(std::uint32_t n) {
  lanes_ = n < 1 ? 1 : n;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>(lanes_);
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>(lanes_);
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(lanes_);
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) {
    s.gauges[name] = GaugeSnapshot{g->value(), g->max()};
  }
  for (const auto& [name, h] : histograms_) s.histograms[name] = h->merged();
  return s;
}

std::string node_metric(const std::string& base, std::uint32_t node) {
  return base + ".n" + std::to_string(node);
}

}  // namespace dq::obs
