#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace dq::obs {

namespace detail {
// The calling partition's lane.  Lane 0 outside a partition step, so every
// one-partition simulation (and all setup-time registration on the main
// thread) behaves exactly as before lanes existed.
thread_local std::uint32_t t_current_lane = 0;
}  // namespace detail

std::size_t HistogramData::bucket_index(double v_ms) {
  constexpr std::uint64_t kTop = std::uint64_t{1} << kTopBits;
  const double ns_d = v_ms * 1e6;
  if (!(ns_d > 0.0)) return 0;
  const std::uint64_t ns =
      ns_d < static_cast<double>(kTop)
          ? std::min(static_cast<std::uint64_t>(std::llround(ns_d)), kTop - 1)
          : kTop - 1;
  // ns lies in [2^k, 2^(k+1)), or below 2^(kSubBits+1) for k = kSubBits,
  // where the sub-buckets are 1 ns wide and the index is ns itself.
  const int k = std::bit_width(ns | kSubBuckets) - 1;
  return (static_cast<std::size_t>(k - kSubBits + 1) << kSubBits) +
         static_cast<std::size_t>(ns >> (k - kSubBits)) - kSubBuckets;
}

std::uint64_t HistogramData::bucket_lower_ns(std::size_t i) {
  const std::size_t major = i >> kSubBits;
  if (major == 0) return i;
  return (kSubBuckets + (i & (kSubBuckets - 1))) << (major - 1);
}

std::uint64_t HistogramData::bucket_width_ns(std::size_t i) {
  const std::size_t major = i >> kSubBits;
  return major == 0 ? 1 : std::uint64_t{1} << (major - 1);
}

void HistogramData::add(double v_ms) {
  if (count == 0) {
    if (buckets.empty()) buckets.assign(kBuckets, 0);
    min = v_ms;
    max = v_ms;
  } else {
    min = std::min(min, v_ms);
    max = std::max(max, v_ms);
  }
  ++count;
  sum += v_ms;
  ++buckets[bucket_index(v_ms)];
}

double HistogramData::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t here = buckets[i];
    if (static_cast<double>(seen + here) >= target) {
      // Spread the bucket's values evenly over the integer nanoseconds it
      // holds, [lower, lower + width - 1]: one-nanosecond buckets (zero
      // ages, suppressed writes) then answer exactly.
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(here);
      const double ns = static_cast<double>(bucket_lower_ns(i)) +
                        frac * static_cast<double>(bucket_width_ns(i) - 1);
      return std::clamp(ns / 1e6, min, max);
    }
    seen += here;
  }
  return max;
}

void HistogramData::merge(const HistogramData& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
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
