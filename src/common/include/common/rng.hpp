// Deterministic pseudo-random number generation.
//
// Experiments must be reproducible run to run, so every stochastic
// component draws from an explicitly seeded generator owned by the
// scenario; nothing reads std::random_device or the wall clock.
#pragma once

#include <cstdint>
#include <limits>

namespace d2dhb {

/// xoshiro256** by Blackman & Vigna — small, fast, and statistically
/// strong enough for simulation workloads. Seeded via SplitMix64 so a
/// single 64-bit seed expands to the full 256-bit state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : state_) {
      // SplitMix64 step.
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t next_u64() {
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

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) return next_u64();  // full range
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit =
        std::numeric_limits<std::uint64_t>::max() -
        (std::numeric_limits<std::uint64_t>::max() % span);
    std::uint64_t v = next_u64();
    while (v >= limit) v = next_u64();
    return lo + v % span;
  }

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p) { return next_double() < p; }

  /// Exponential variate with the given mean (> 0).
  double exponential(double mean);

  /// Standard normal variate (Box–Muller, cached second value).
  double normal(double mean, double stddev);

  /// Derive an independent child generator (for per-node streams).
  Rng fork() { return Rng{next_u64()}; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
  bool has_cached_normal_{false};
  double cached_normal_{0.0};
};

/// Stateless keyed draw, counter-based in the style of Random123
/// (Salmon et al., SC'11): a pure function of a 64-bit key and three
/// counter words (say, who measured whom and when), with no stream to
/// share, split into lanes or consume in order. Changing any one input
/// changes the value: each mixing step is a bijection of the running
/// hash for fixed other inputs.
class KeyedDraw {
 public:
  constexpr KeyedDraw(std::uint64_t key, std::uint64_t a, std::uint64_t b,
                      std::uint64_t c)
      : hash_(mix(mix(mix(key, a), b), c)) {}

  /// Uniform double in [0, 1).
  constexpr double uniform() const { return unit(mix(hash_, 0)); }
  /// Standard normal (Box–Muller over two further words).
  double normal() const;

 private:
  /// SplitMix64's finalizer applied to (h ^ x) + golden ratio.
  static constexpr std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
    std::uint64_t z = (h ^ x) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  static constexpr double unit(std::uint64_t w) {
    return static_cast<double>(w >> 11) * 0x1.0p-53;
  }

  std::uint64_t hash_;
};

}  // namespace d2dhb
