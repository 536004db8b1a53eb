// Deterministic, seedable random number generation.
//
// All randomness in the simulator flows through a SplitMix64-seeded
// xoshiro256** generator so that every experiment is exactly reproducible
// from its seed.  We deliberately do not use std::mt19937 default-seeding or
// std::random_device anywhere in the library.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>

namespace dq {

// xoshiro256** by Blackman & Vigna -- fast, high-quality, tiny state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    // SplitMix64 to spread a small seed across the full state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound).  Plain modulo: bounds in this codebase
  // are node counts (tiny vs 2^64), so the bias is immeasurable.
  std::uint64_t below(std::uint64_t bound) {
    return bound == 0 ? 0 : operator()() % bound;
  }

  // Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  // Bernoulli trial with success probability p.
  bool chance(double p) { return uniform() < p; }

  // Exponentially distributed value with the given mean (for think times /
  // failure inter-arrivals).
  double exponential(double mean);

  // Fisher-Yates shuffle of a span.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

  // Derive an independent child generator (for per-node streams).
  Rng split() { return Rng(operator()()); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace dq
