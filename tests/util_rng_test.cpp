#include "src/util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "tests/pin_hash.hpp"

namespace fcrit::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LE(same, 1);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBoolMatchesProbability) {
  Rng rng(9);
  int count = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) count += rng.next_bool(0.3);
  EXPECT_NEAR(static_cast<double>(count) / n, 0.3, 0.02);
}

TEST(Rng, NextBoolExtremes) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, ShuffleEmptyAndSingle) {
  Rng rng(23);
  std::vector<int> empty;
  rng.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.shuffle(one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto s : sample) EXPECT_LT(s, 100u);
}

TEST(Rng, SampleFullRange) {
  Rng rng(31);
  auto sample = rng.sample_without_replacement(5, 5);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(sample, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(37);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (parent.next() == child.next()) ++same;
  EXPECT_LE(same, 1);
}

// The raw stream every stimulus word, statistic and campaign verdict is
// drawn from: fnv1a64 of the first 4096 next() words per seed.
TEST(Rng, StreamMatchesPinnedHash) {
  const std::pair<std::uint64_t, std::uint64_t> cases[] = {
      {0, 0x07da72e5c5943bd6ULL},
      {1, 0x0a6333cd21094044ULL},
      {99, 0xdb0037d3a5ceb0efULL},
      {0x5eed5eed5eedULL, 0x642f6c09bb2799e4ULL},
  };
  for (const auto& [seed, pinned] : cases) {
    Rng rng(seed);
    std::vector<std::uint64_t> words(4096);
    for (auto& w : words) w = rng.next();
    const std::uint64_t got =
        pins::hash_bytes(std::span<const std::uint64_t>(words));
    EXPECT_EQ(got, pinned) << "seed " << seed << ": got 0x" << std::hex << got;
  }
}

// The stimulus generator's integer form of next_bool: (next() >> 11) <
// bool_threshold(p) must agree with next_double() < p for every double,
// at the draws around the threshold and on real streams.
TEST(Rng, BoolThresholdMatchesNextBool) {
  constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> ps = {-0.0,
                            0.0,
                            std::numeric_limits<double>::denorm_min(),
                            0x1.0p-53,
                            0.5,
                            std::nextafter(1.0, 0.0),
                            1.0,
                            1.6,
                            -3.0,
                            1e300,
                            inf,
                            -inf,
                            std::numeric_limits<double>::quiet_NaN()};
  Rng gen(5);
  for (int i = 0; i < 200; ++i) ps.push_back(gen.next_double());
  for (int i = 0; i < 50; ++i) ps.push_back(3.0 * gen.next_double() - 1.0);

  for (const double p : ps) {
    const std::uint64_t t = Rng::bool_threshold(p);
    ASSERT_LE(t, kTwo53) << p;
    // next_double() of a draw x is (x >> 11) * 2^-53.
    for (const std::uint64_t x53 : {std::uint64_t{0}, t - 1, t, t + 1,
                                    kTwo53 - 1}) {
      if (x53 >= kTwo53) continue;  // t - 1 wrapped, or t + 1 past the top
      EXPECT_EQ(static_cast<double>(x53) * 0x1.0p-53 < p, x53 < t)
          << "p " << p << " x53 " << x53;
    }
    Rng by_double(11), by_threshold(11);
    for (int i = 0; i < 256; ++i)
      ASSERT_EQ(by_double.next_bool(p), (by_threshold.next() >> 11) < t)
          << "p " << p << " draw " << i;
  }
}

TEST(SplitMix64, KnownSequenceIsStable) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
}

}  // namespace
}  // namespace fcrit::util
