#include "core/cost_model.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace vor::core {
namespace {

using testing::OneVideoCatalog;
using testing::SmallTopology;

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest()
      : topo_(SmallTopology(3, /*nrate_per_gb=*/10.0, /*srate=*/3.6)),
        catalog_(OneVideoCatalog()),
        router_(topo_),
        cm_(topo_, router_, catalog_) {}

  net::Topology topo_;
  media::Catalog catalog_;
  net::Router router_;
  CostModel cm_;
};

TEST_F(CostModelTest, StreamBytesIsPlaybackTimesBandwidth) {
  // 1 GB / 1 h title streams 1 GB.
  EXPECT_NEAR(cm_.StreamBytes(0).value(), 1e9, 1.0);
}

TEST_F(CostModelTest, DeliveryCostPerHop) {
  Delivery d;
  d.route = router_.CheapestPath(topo_.warehouse(), 2).nodes;  // 2 hops
  EXPECT_EQ(d.route.size(), 3u);
  // 2 hops * $10/GB * 1 GB
  EXPECT_NEAR(cm_.DeliveryCost(d, 0).value(), 20.0, 1e-9);
}

TEST_F(CostModelTest, SingleNodeRouteIsFree) {
  Delivery d;
  d.route = {1};
  EXPECT_DOUBLE_EQ(cm_.DeliveryCost(d, 0).value(), 0.0);
}

TEST_F(CostModelTest, GammaLongVsShort) {
  Residency c;
  c.location = 1;
  c.t_start = util::Hours(0);
  c.t_last = util::Hours(2);  // 2 h > 1 h playback -> long
  EXPECT_DOUBLE_EQ(cm_.Gamma(c, 0), 1.0);
  c.t_last = util::Hours(0.5);  // short
  EXPECT_DOUBLE_EQ(cm_.Gamma(c, 0), 0.5);
  c.t_last = util::Hours(0);  // degenerate
  EXPECT_DOUBLE_EQ(cm_.Gamma(c, 0), 0.0);
}

TEST_F(CostModelTest, LongResidencyMatchesEq2) {
  // srate = 3.6 $/GBh = 1e-12 $/(B*s); size 1 GB, playback 1 h.
  Residency c;
  c.location = 1;
  c.t_start = util::Hours(1);
  c.t_last = util::Hours(4);  // delta = 3 h
  // Eq. 2: srate * size * (delta + P/2) = 3.6 * 1 * (3 + 0.5) = 12.6 $.
  EXPECT_NEAR(cm_.ResidencyCost(c, 0).value(), 12.6, 1e-9);
}

TEST_F(CostModelTest, ShortResidencyMatchesEq3) {
  Residency c;
  c.location = 1;
  c.t_start = util::Hours(1);
  c.t_last = util::Hours(1.5);  // delta = 0.5 h, gamma = 0.5
  // Eq. 3: srate * size * gamma * (delta + P/2) = 3.6 * 0.5 * 1.0 = 1.8 $.
  EXPECT_NEAR(cm_.ResidencyCost(c, 0).value(), 1.8, 1e-9);
}

TEST_F(CostModelTest, CostContinuousAtShortLongBoundary) {
  Residency c;
  c.location = 1;
  c.t_start = util::Hours(0);
  const double playback = 3600.0;
  const double eps = 1e-6;
  c.t_last = util::Seconds{playback - eps};
  const double below = cm_.ResidencyCost(c, 0).value();
  c.t_last = util::Seconds{playback + eps};
  const double above = cm_.ResidencyCost(c, 0).value();
  EXPECT_NEAR(below, above, 1e-6);
}

TEST_F(CostModelTest, ResidencyCostMonotoneInDuration) {
  Residency c;
  c.location = 1;
  c.t_start = util::Hours(0);
  double prev = -1.0;
  for (double h = 0.0; h <= 5.0; h += 0.1) {
    c.t_last = util::Hours(h);
    const double cost = cm_.ResidencyCost(c, 0).value();
    EXPECT_GE(cost, prev);
    prev = cost;
  }
}

TEST_F(CostModelTest, ZeroDurationResidencyIsFree) {
  Residency c;
  c.location = 1;
  c.t_start = util::Hours(2);
  c.t_last = util::Hours(2);
  EXPECT_DOUBLE_EQ(cm_.ResidencyCost(c, 0).value(), 0.0);
}

TEST_F(CostModelTest, CostEqualsSrateTimesOccupancyIntegral) {
  // The storage formulas are exactly srate times the integral of the
  // occupancy profile of Eq. (6) — verify both for short and long.
  for (const double hours : {0.3, 0.8, 1.0, 2.5}) {
    Residency c;
    c.location = 1;
    c.t_start = util::Hours(1);
    c.t_last = util::Hours(1 + hours);
    const util::LinearPiece piece = cm_.OccupancyPiece(c, 0, 0);
    const double integral = piece.IntegralOver(piece.Support());
    const double srate = topo_.node(1).srate.value();
    EXPECT_NEAR(cm_.ResidencyCost(c, 0).value(), srate * integral,
                1e-9 * srate * integral + 1e-12)
        << "hours=" << hours;
  }
}

TEST_F(CostModelTest, OccupancyPieceShape) {
  Residency c;
  c.location = 1;
  c.t_start = util::Hours(1);
  c.t_last = util::Hours(3);
  const util::LinearPiece p = cm_.OccupancyPiece(c, 0, 42);
  EXPECT_EQ(p.tag, 42u);
  EXPECT_DOUBLE_EQ(p.t0.value(), 3600.0);
  EXPECT_DOUBLE_EQ(p.t1.value(), 3.0 * 3600.0);
  EXPECT_DOUBLE_EQ(p.t2.value(), 4.0 * 3600.0);  // + playback
  EXPECT_NEAR(p.height, 1e9, 1.0);               // gamma = 1
}

TEST_F(CostModelTest, FileAndTotalCostAggregate) {
  Schedule s;
  FileSchedule f;
  f.video = 0;
  Delivery d;
  d.route = router_.CheapestPath(topo_.warehouse(), 1).nodes;
  f.deliveries.push_back(d);
  Residency c;
  c.location = 1;
  c.t_start = util::Hours(0);
  c.t_last = util::Hours(2);
  f.residencies.push_back(c);
  s.files.push_back(f);
  const double expected =
      cm_.DeliveryCost(d, 0).value() + cm_.ResidencyCost(c, 0).value();
  EXPECT_NEAR(cm_.FileCost(s.files[0]).value(), expected, 1e-9);
  EXPECT_NEAR(cm_.TotalCost(s).value(), expected, 1e-9);
}

TEST_F(CostModelTest, EndToEndBasisUsesMatrix) {
  PricingOptions pricing;
  pricing.basis = PricingBasis::kEndToEnd;
  pricing.e2e_discount = 0.5;
  const CostModel e2e(topo_, router_, catalog_, pricing);
  Delivery d;
  d.route = router_.CheapestPath(topo_.warehouse(), 3).nodes;  // 3 hops
  ASSERT_EQ(d.route.size(), 4u);
  // per-hop total 30 $/GB, discounted by 0.5^2 = 7.5 $/GB.
  EXPECT_NEAR(e2e.DeliveryCost(d, 0).value(), 7.5, 1e-9);
  EXPECT_NEAR(e2e.RouteRate(topo_.warehouse(), 3).value() * 1e9, 7.5, 1e-9);
}

}  // namespace
}  // namespace vor::core
