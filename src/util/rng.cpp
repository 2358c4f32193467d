#include "src/util/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace fcrit::util {

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t t = (0 - bound) % bound;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

float Rng::next_float() {
  return static_cast<float>(next() >> 40) * 0x1.0p-24f;
}

bool Rng::next_bool(double p) { return next_double() < p; }

std::uint64_t Rng::bool_threshold(double p) {
  if (!(p > 0.0)) return 0;  // also NaN
  if (p >= 1.0) return std::uint64_t{1} << 53;
  // p * 2^53 lies in (0, 2^53): its ceiling converts exactly.
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

std::uint64_t Rng::float_threshold(float p) {
  if (!(p > 0.0f)) return 0;  // also NaN
  if (p >= 1.0f) return std::uint64_t{1} << 24;
  // p * 2^24 lies in (0, 2^24): its ceiling converts exactly.
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p24f));
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span =
      static_cast<std::uint64_t>(hi - lo) + 1;  // hi - lo < 2^63 in practice
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - next_double();
  double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  assert(k <= n);
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher-Yates: after k swaps the first k entries are the sample.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + next_below(n - i);
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

Rng Rng::fork() { return Rng(next() ^ 0xda3e39cb94b95bdbULL); }

}  // namespace fcrit::util
