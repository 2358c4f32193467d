// Deterministic pseudo-random number generation for simulation, stimulus
// generation and ML initialization.
//
// All randomness in fcrit flows through Xoshiro256** seeded via SplitMix64,
// so every experiment in the repository is exactly reproducible from a seed.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace fcrit::util {

/// SplitMix64: used to expand a single 64-bit seed into a full generator
/// state. Passes BigCrush; recommended seeding procedure for Xoshiro.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: fast, high-quality 64-bit generator. Satisfies (most of)
/// the C++ UniformRandomBitGenerator requirements so it can be used with
/// <random> distributions if desired.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  /// Inline: the stimulus generator draws 64 words per input per cycle.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform float in [0, 1).
  float next_float();

  /// true with probability p.
  bool next_bool(double p = 0.5);

  /// The integer form of next_bool: for every double p, NaN and the
  /// infinities included, `(next() >> 11) < bool_threshold(p)` is exactly
  /// `next_bool(p)` on the same draw. next_double() is (x >> 11) * 2^-53
  /// exactly, so next_double() < p  <=>  (x >> 11) < p * 2^53 (scaling by
  /// 2^53 is exact)  <=>  (x >> 11) < ceil(p * 2^53). The result is 0 when
  /// p <= 0 or p is NaN and 2^53 when p >= 1, so no out-of-range value is
  /// ever converted to an integer.
  static std::uint64_t bool_threshold(double p);

  /// The same identity for next_float(): for every float p, NaN and the
  /// infinities included, `(next() >> 40) < float_threshold(p)` is exactly
  /// `next_float() < p` on the same draw. next_float() is (x >> 40) * 2^-24
  /// exactly, and p * 2^24 is exact in float, so the comparison holds
  /// against ceil(p * 2^24). The result is 0 when p <= 0 or p is NaN and
  /// 2^24 when p >= 1, so no out-of-range value is ever converted to an
  /// integer.
  static std::uint64_t float_threshold(float p);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second variate).
  double next_gaussian();

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    if (items.empty()) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      const std::size_t j = next_below(i + 1);
      std::swap(items[i], items[j]);
    }
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    shuffle(std::span<T>(items));
  }

  /// Draw k distinct indices from [0, n). k must be <= n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Independent child generator; decorrelates sub-streams (e.g. one per
  /// workload) from the parent stream.
  Rng fork();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace fcrit::util
