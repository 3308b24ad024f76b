#pragma once

#include <cstdint>
#include <limits>

namespace dfly {

/// xoshiro256++ pseudo-random generator with SplitMix64 seeding.
///
/// Deterministic, fast, and cheap to fork: every component derives its own
/// independent stream from (master seed, component id) so that adding or
/// reordering components does not perturb other components' draws.
///
/// Thread-safety: none — state advances on every draw. Each simulation cell
/// seeds its own Rng instances; parallel sweeps must never share one across
/// SubmissionQueue workers (determinism, not just data races, would break).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Derive an independent stream for component `stream_id`.
  Rng(std::uint64_t seed, std::uint64_t stream_id) {
    reseed(seed ^ (0xBF58476D1CE4E5B9ull * (stream_id + 1)));
  }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the 64-bit seed into 256 bits of state.
    for (auto& word : state_) {
      seed += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      word = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    // Lemire's nearly-divisionless method, with rejection for exactness.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  bool next_bernoulli(double p) { return next_double() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace dfly
