#include "core/heat.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "test_helpers.hpp"

namespace vor::core {
namespace {

using testing::OneVideoCatalog;
using testing::SmallTopology;

struct Env {
  Env() : topo(SmallTopology(2)), catalog(OneVideoCatalog()), router(topo),
          cm(topo, router, catalog) {}
  net::Topology topo;
  media::Catalog catalog;
  net::Router router;
  CostModel cm;
};

Residency MakeResidency(double start_h, double last_h) {
  Residency c;
  c.location = 1;
  c.t_start = util::Hours(start_h);
  c.t_last = util::Hours(last_h);
  return c;
}

OverflowWindow Window(double start_h, double end_h) {
  OverflowWindow of;
  of.node = 1;
  of.window = util::Interval{util::Hours(start_h), util::Hours(end_h)};
  return of;
}

TEST(HeatTest, ImprovedLengthIsSupportOverlap) {
  Env env;
  // Occupancy support: [1h, 5h + 1h playback) = [1h, 6h).
  const Residency c = MakeResidency(1, 5);
  EXPECT_DOUBLE_EQ(ImprovedLength(c, 0, Window(2, 4), env.cm), 2 * 3600.0);
  EXPECT_DOUBLE_EQ(ImprovedLength(c, 0, Window(5, 9), env.cm), 1 * 3600.0);
  EXPECT_DOUBLE_EQ(ImprovedLength(c, 0, Window(7, 9), env.cm), 0.0);
  EXPECT_DOUBLE_EQ(ImprovedLength(c, 0, Window(0, 10), env.cm), 5 * 3600.0);
}

TEST(HeatTest, TimeSpaceIsOccupancyIntegralInWindow) {
  Env env;
  const Residency c = MakeResidency(1, 5);
  // Plateau 1 GB over the window [2h, 4h].
  EXPECT_NEAR(TimeSpaceImprovement(c, 0, Window(2, 4), env.cm),
              1e9 * 2 * 3600.0, 1e3);
  // Drain [5h, 6h): integral = 0.5 GB*h.
  EXPECT_NEAR(TimeSpaceImprovement(c, 0, Window(5, 9), env.cm),
              0.5e9 * 3600.0, 1e3);
  EXPECT_DOUBLE_EQ(TimeSpaceImprovement(c, 0, Window(8, 9), env.cm), 0.0);
}

TEST(HeatTest, MetricSelection) {
  const double chi = 100.0;
  const double ds = 5e9;
  const double overhead = 25.0;
  EXPECT_DOUBLE_EQ(ComputeHeat(HeatMetric::kImprovedLength, chi, ds, overhead),
                   chi);
  EXPECT_DOUBLE_EQ(ComputeHeat(HeatMetric::kLengthPerCost, chi, ds, overhead),
                   chi / overhead);
  EXPECT_DOUBLE_EQ(ComputeHeat(HeatMetric::kTimeSpace, chi, ds, overhead), ds);
  EXPECT_DOUBLE_EQ(
      ComputeHeat(HeatMetric::kTimeSpacePerCost, chi, ds, overhead),
      ds / overhead);
}

TEST(HeatTest, FreeImprovementIsInfinitelyHot) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const auto metric :
       {HeatMetric::kImprovedLength, HeatMetric::kLengthPerCost,
        HeatMetric::kTimeSpace, HeatMetric::kTimeSpacePerCost}) {
    EXPECT_EQ(ComputeHeat(metric, 10.0, 1e9, 0.0), kInf);
    EXPECT_EQ(ComputeHeat(metric, 10.0, 1e9, -5.0), kInf);
  }
}

TEST(HeatTest, NoImprovementIsColdestPossible) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ComputeHeat(HeatMetric::kImprovedLength, 0.0, 1e9, 5.0), -kInf);
  EXPECT_EQ(ComputeHeat(HeatMetric::kTimeSpace, 10.0, 0.0, 5.0), -kInf);
  EXPECT_EQ(ComputeHeat(HeatMetric::kTimeSpacePerCost, 10.0, -1.0, 5.0), -kInf);
}

TEST(HeatTest, PerCostMetricsPreferCheaperVictims) {
  const double h_cheap =
      ComputeHeat(HeatMetric::kTimeSpacePerCost, 10, 1e9, 10.0);
  const double h_pricey =
      ComputeHeat(HeatMetric::kTimeSpacePerCost, 10, 1e9, 100.0);
  EXPECT_GT(h_cheap, h_pricey);
}

TEST(HeatTest, NamesAreDistinct) {
  EXPECT_NE(ToString(HeatMetric::kImprovedLength),
            ToString(HeatMetric::kLengthPerCost));
  EXPECT_NE(ToString(HeatMetric::kTimeSpace),
            ToString(HeatMetric::kTimeSpacePerCost));
}

}  // namespace
}  // namespace vor::core
