// Small statistics helpers used by the workload driver and benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace dq {

// Accumulates a stream of samples and answers mean / percentile / extrema
// queries.  Keeps all samples (experiments are small: <10^6 requests).
//
// Percentile queries sort lazily: the first query after an add() sorts the
// sample vector once and subsequent queries reuse it, so a reporting pass
// that asks for p50/p95/p99/... pays for one sort, not one per query.
class Summary {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }

  [[nodiscard]] double mean() const {
    if (samples_.empty()) return 0.0;
    double s = 0.0;
    for (double x : samples_) s += x;
    return s / static_cast<double>(samples_.size());
  }

  [[nodiscard]] double min() const {
    if (samples_.empty()) return 0.0;
    return *std::min_element(samples_.begin(), samples_.end());
  }

  [[nodiscard]] double max() const {
    if (samples_.empty()) return 0.0;
    return *std::max_element(samples_.begin(), samples_.end());
  }

  // Nearest-rank percentile (linear interpolation), q in [0, 100].
  [[nodiscard]] double percentile(double q) const {
    if (samples_.empty()) return 0.0;
    ensure_sorted();
    const double rank = (q / 100.0) * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  }

  [[nodiscard]] double p50() const { return percentile(50.0); }
  [[nodiscard]] double p95() const { return percentile(95.0); }
  [[nodiscard]] double p99() const { return percentile(99.0); }

  [[nodiscard]] double stddev() const {
    if (samples_.size() < 2) return 0.0;
    const double m = mean();
    double s = 0.0;
    for (double x : samples_) s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(samples_.size() - 1));
  }

  // {"count":N,"mean":...,"min":...,"max":...,"p50":...,"p95":...,"p99":...}
  [[nodiscard]] std::string to_json() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"count\":%zu,\"mean\":%.6g,\"min\":%.6g,\"max\":%.6g,"
                  "\"p50\":%.6g,\"p95\":%.6g,\"p99\":%.6g}",
                  count(), mean(), min(), max(), p50(), p95(), p99());
    return buf;
  }

  void clear() {
    samples_.clear();
    sorted_ = true;
  }

 private:
  void ensure_sorted() const {
    if (sorted_) return;
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;  // vacuously sorted while empty
};

}  // namespace dq
