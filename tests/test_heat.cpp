#include "core/heat.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "test_helpers.hpp"
#include "util/rng.hpp"

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

// The overhead limit splits overheads exactly, in floating point: the
// limit itself still reaches the heat (a tie is never cut) and every
// larger overhead falls strictly below it.
TEST(HeatTest, OverheadLimitSplitsReachingFromFallingShort) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  util::Rng rng(20261021);
  const auto log_uniform = [&](double lo, double hi) {
    return std::exp(rng.Uniform(std::log(lo), std::log(hi)));
  };
  for (const auto metric :
       {HeatMetric::kImprovedLength, HeatMetric::kLengthPerCost,
        HeatMetric::kTimeSpace, HeatMetric::kTimeSpacePerCost}) {
    SCOPED_TRACE(ToString(metric));
    for (int trial = 0; trial < 4000; ++trial) {
      const double chi = trial % 50 == 0 ? 0.0 : log_uniform(1.0, 1e5);
      const double ds = trial % 50 == 1 ? 0.0 : log_uniform(1e6, 1e14);
      // A rival's heat, and a few the loop can meet: a tie with this
      // candidate's own heat, the infinities, and zero.
      double best = ComputeHeat(metric, log_uniform(1.0, 1e5),
                                log_uniform(1e6, 1e14),
                                log_uniform(1e-3, 1e4));
      if (trial % 7 == 0) {
        best = ComputeHeat(metric, chi, ds, log_uniform(1e-3, 1e4));
      }
      if (trial % 97 == 3) best = kInf;
      if (trial % 97 == 4) best = -kInf;
      if (trial % 97 == 5) best = 0.0;
      const double limit = OverheadLimit(metric, chi, ds, best);
      const auto heat = [&](double overhead) {
        return ComputeHeat(metric, chi, ds, overhead);
      };
      if (limit == kInf) {
        for (const double overhead : {-1.0, 0.0, 1e-3, 1.0, 1e4, 1e300}) {
          EXPECT_GE(heat(overhead), best) << overhead;
        }
      } else if (limit == -kInf) {
        for (const double overhead : {-1.0, 0.0, 1e-3, 1.0, 1e4}) {
          EXPECT_LT(heat(overhead), best) << overhead;
        }
      } else {
        EXPECT_GE(heat(limit), best) << "the limit itself falls short";
        for (const double overhead :
             {std::nextafter(limit, kInf), limit * (1.0 + 1e-12) + 1e-300,
              limit * 2.0 + 1.0, 1e300}) {
          EXPECT_LT(heat(overhead), best)
              << overhead << " above limit " << limit;
        }
      }
    }
  }
}

TEST(HeatTest, OverheadLimitCases) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // M2/M4: improvement / heat.
  EXPECT_DOUBLE_EQ(OverheadLimit(HeatMetric::kTimeSpacePerCost, 1.0, 1e9, 1e8),
                   10.0);
  EXPECT_DOUBLE_EQ(OverheadLimit(HeatMetric::kLengthPerCost, 100.0, 1e9, 4.0),
                   25.0);
  // M1/M3: no limit when the improvement reaches the heat, else only a
  // free run does.
  EXPECT_EQ(OverheadLimit(HeatMetric::kTimeSpace, 1.0, 1e9, 1e9), kInf);
  EXPECT_EQ(OverheadLimit(HeatMetric::kImprovedLength, 10.0, 1e9, 11.0), 0.0);
  for (const auto metric :
       {HeatMetric::kImprovedLength, HeatMetric::kLengthPerCost,
        HeatMetric::kTimeSpace, HeatMetric::kTimeSpacePerCost}) {
    EXPECT_LT(OverheadLimit(metric, 10.0, 1e9, kInf), 1e-290);
    EXPECT_EQ(OverheadLimit(metric, 10.0, 1e9, -kInf), kInf);
    EXPECT_EQ(OverheadLimit(metric, 0.0, 0.0, 1.0), -kInf);
    EXPECT_EQ(OverheadLimit(metric, 0.0, 0.0, -kInf), kInf);
  }
}

TEST(HeatTest, NamesAreDistinct) {
  EXPECT_NE(ToString(HeatMetric::kImprovedLength),
            ToString(HeatMetric::kLengthPerCost));
  EXPECT_NE(ToString(HeatMetric::kTimeSpace),
            ToString(HeatMetric::kTimeSpacePerCost));
}

}  // namespace
}  // namespace vor::core
