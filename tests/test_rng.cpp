#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/stats.hpp"

namespace vor::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, ZeroSeedIsUsable) {
  Rng rng(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 50; ++i) seen.insert(rng.NextU64());
  EXPECT_GT(seen.size(), 45u);  // not stuck
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMomentsMatchUniform) {
  Rng rng(11);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.Add(rng.NextDouble());
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
  EXPECT_NEAR(acc.variance(), 1.0 / 12.0, 0.01);
}

TEST(RngTest, NextBoundedInRangeAndRoughlyUniform) {
  Rng rng(99);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t v = rng.NextBounded(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(3.0, 7.0);
    EXPECT_GE(x, 3.0);
    EXPECT_LT(x, 7.0);
  }
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(31);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.Add(rng.Normal(10.0, 3.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 3.0, 0.1);
}

TEST(RngTest, ForkedStreamsAreIndependentAndDeterministic) {
  const Rng master(777);
  Rng fork1 = master.Fork(1);
  Rng fork1b = master.Fork(1);
  Rng fork2 = master.Fork(2);
  int same12 = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fork1.NextU64(), fork1b.NextU64());
    Rng f1 = master.Fork(1);
    (void)f1;
  }
  Rng a = master.Fork(1);
  Rng b = master.Fork(2);
  for (int i = 0; i < 100; ++i) same12 += (a.NextU64() == b.NextU64());
  EXPECT_LT(same12, 3);
  (void)fork2;
}

TEST(RngTest, SplitMixAdvancesState) {
  std::uint64_t s = 42;
  const std::uint64_t a = SplitMix64(s);
  const std::uint64_t b = SplitMix64(s);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace vor::util
