#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace vor::util {
namespace {

TEST(AccumulatorTest, BasicMoments) {
  Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(AccumulatorTest, SingleValue) {
  Accumulator acc;
  acc.Add(3.14);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.14);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 3.14);
  EXPECT_DOUBLE_EQ(acc.max(), 3.14);
}

TEST(AccumulatorTest, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(PercentileTest, InterpolatesOrderStatistics) {
  const std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 20.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 37.5), 25.0);
}

TEST(PercentileTest, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 3}, 50), 3.0);
}

TEST(PercentileTest, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  // Empty input is safe for every p, including hostile ones.
  EXPECT_DOUBLE_EQ(Percentile({}, -10), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 1e300), 0.0);
}

TEST(PercentileTest, SingleSampleIsItsOwnPercentile) {
  EXPECT_DOUBLE_EQ(Percentile({7.5}, 0), 7.5);
  EXPECT_DOUBLE_EQ(Percentile({7.5}, 50), 7.5);
  EXPECT_DOUBLE_EQ(Percentile({7.5}, 100), 7.5);
}

TEST(PercentileTest, OutOfRangePIsClamped) {
  const std::vector<double> values{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Percentile(values, -5), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 105), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 1e300), 4.0);
  // NaN p clamps to the minimum instead of indexing out of bounds.
  EXPECT_DOUBLE_EQ(Percentile(values, std::nan("")), 1.0);
}

TEST(CorrelationTest, PerfectLinearIsOne) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  const std::vector<double> ny{-2, -4, -6, -8, -10};
  EXPECT_NEAR(PearsonCorrelation(x, ny), -1.0, 1e-12);
}

TEST(CorrelationTest, DegenerateInputsReturnZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1}, {2}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 2}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {2, 3, 4}), 0.0);
}

}  // namespace
}  // namespace vor::util
