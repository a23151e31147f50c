// Edge-case batch: ties, degenerate instances, parallel links, and other
// corners the main suites don't reach.
#include <gtest/gtest.h>

#include "baseline/online_lru.hpp"
#include "core/cost_model.hpp"
#include "core/scheduler.hpp"
#include "sim/playback_sim.hpp"
#include "sim/validator.hpp"
#include "storage/load.hpp"
#include "test_helpers.hpp"
#include "workload/scenario.hpp"

namespace vor {
namespace {

using core::CostModel;
using core::Delivery;
using core::VorScheduler;
using testing::OneVideoCatalog;

TEST(EdgeCaseTest, ParallelLinksUseCheapestRate) {
  net::Topology topo;
  const net::NodeId vw = topo.AddWarehouse("VW");
  const net::NodeId a = topo.AddStorage("A", util::GB(10), util::StorageRate{0});
  topo.AddLink(vw, a, util::NetworkRate{9.0 / 1e9});
  topo.AddLink(vw, a, util::NetworkRate{4.0 / 1e9});  // cheaper duplicate
  const media::Catalog catalog = OneVideoCatalog();
  const net::Router router(topo);
  const CostModel cm(topo, router, catalog);

  EXPECT_NEAR(cm.RouteRate(vw, a).value() * 1e9, 4.0, 1e-9);
  Delivery d;
  d.route = {vw, a};
  EXPECT_NEAR(cm.DeliveryCost(d, 0).value(), 4.0, 1e-9);  // min of the two
}

TEST(EdgeCaseTest, SimultaneousRequestsAllServedDeterministically) {
  testing::PaperExample ex;
  // Three users, all at exactly 1:00 pm, two in the same neighborhood.
  ex.requests = {
      {0, 0, util::Hours(13.0), ex.is1},
      {1, 0, util::Hours(13.0), ex.is2},
      {2, 0, util::Hours(13.0), ex.is2},
  };
  VorScheduler scheduler(ex.topology, ex.catalog);
  const auto a = scheduler.Solve(ex.requests);
  const auto b = scheduler.Solve(ex.requests);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->final_cost.value(), b->final_cost.value());
  const auto report = sim::ValidateSchedule(a->schedule, ex.requests,
                                            scheduler.cost_model());
  EXPECT_TRUE(report.ok());
  for (const auto& v : report.violations) {
    ADD_FAILURE() << sim::ToString(v.kind) << ": " << v.detail;
  }
}

TEST(EdgeCaseTest, SingleNeighborhoodSingleUser) {
  net::Topology topo;
  const net::NodeId vw = topo.AddWarehouse("VW");
  const net::NodeId a = topo.AddStorage("A", util::GB(2), util::StorageRate{1e-12});
  topo.AddLink(vw, a, util::NetworkRate{5e-9});
  const media::Catalog catalog = OneVideoCatalog();
  const std::vector<workload::Request> requests{{0, 0, util::Hours(1), a}};
  VorScheduler scheduler(topo, catalog);
  const auto result = scheduler.Solve(requests);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->final_cost.value(), 5.0, 1e-9);
  EXPECT_EQ(result->schedule.TotalResidencies(), 0u);
}

TEST(EdgeCaseTest, ZeroRateNetworkStillSchedules) {
  // Free network: caching gains nothing, everything can go direct; no
  // division blowups anywhere.
  net::Topology topo;
  const net::NodeId vw = topo.AddWarehouse("VW");
  const net::NodeId a = topo.AddStorage("A", util::GB(2), util::StorageRate{1e-12});
  topo.AddLink(vw, a, util::NetworkRate{0.0});
  const media::Catalog catalog = OneVideoCatalog();
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(1.0), a},
      {1, 0, util::Hours(1.5), a},
  };
  VorScheduler scheduler(topo, catalog);
  const auto result = scheduler.Solve(requests);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->final_cost.value(), 0.0);
}

TEST(EdgeCaseTest, ZeroStorageRateCachesFreely) {
  testing::PaperExample ex;
  ex.topology.SetUniformStorageRate(util::StorageRate{0.0});
  VorScheduler scheduler(ex.topology, ex.catalog);
  const auto result = scheduler.Solve(ex.requests);
  ASSERT_TRUE(result.ok());
  // U1 direct ($64.80); U2/U3 from free local caches: IS1 anchor at 1 pm
  // feeds IS2 via one $32.40 hop, then U3 replays at IS2 for nothing.
  EXPECT_NEAR(result->final_cost.value(), 64.8 + 32.4, 1e-6);
}

TEST(EdgeCaseTest, RequestAtCycleBoundaryZero) {
  testing::PaperExample ex;
  ex.requests[0].start_time = util::Seconds{0.0};
  VorScheduler scheduler(ex.topology, ex.catalog);
  const auto result = scheduler.Solve(ex.requests);
  ASSERT_TRUE(result.ok());
  const auto report = sim::ValidateSchedule(result->schedule, ex.requests,
                                            scheduler.cost_model());
  EXPECT_TRUE(report.ok());
}

TEST(EdgeCaseTest, PlaybackSimMatchesAnalyticsForOnlineLruSchedule) {
  // Cross-check the DES against the analytic timelines on a schedule the
  // scheduler did NOT produce (the online-LRU baseline).
  const workload::Scenario scenario = workload::MakeScenario({});
  const net::Router router(scenario.topology);
  const CostModel cm(scenario.topology, router, scenario.catalog);
  const core::Schedule s =
      baseline::OnlineLruSchedule(scenario.requests, cm).schedule;
  const sim::SimulationResult sim = sim::SimulateSchedule(s, scenario.requests, cm);
  const storage::Load load(s, cm);
  for (const sim::NodeTelemetry& node : sim.nodes) {
    EXPECT_NEAR(node.peak_bytes, load.SpacePeak(node.node), 10.0)
        << "node " << node.node;
  }
}

/// Storage-cost formula sweep: Eq. (2)/(3) as one parameterized family.
class StorageCostSweep : public ::testing::TestWithParam<double> {};

TEST_P(StorageCostSweep, FormulaMatchesClosedFormAndIntegral) {
  const double delta_hours = GetParam();
  net::Topology topo = testing::SmallTopology(1, 10.0, /*srate=*/3.6);
  const media::Catalog catalog = OneVideoCatalog();  // 1 GB / 1 h
  const net::Router router(topo);
  const CostModel cm(topo, router, catalog);

  core::Residency c;
  c.location = 1;
  c.t_start = util::Hours(2.0);
  c.t_last = util::Hours(2.0 + delta_hours);

  const double playback_h = 1.0;
  const double gamma = std::min(1.0, delta_hours / playback_h);
  // srate 3.6 $/GBh on 1 GB: cost = 3.6 * gamma * (delta + P/2) in hours.
  const double expected = 3.6 * gamma * (delta_hours + playback_h / 2.0);
  EXPECT_NEAR(cm.ResidencyCost(c, 0).value(), expected, 1e-9);

  // And it is exactly srate times the occupancy integral.
  const util::LinearPiece piece = cm.OccupancyPiece(c, 0, 0);
  EXPECT_NEAR(cm.ResidencyCost(c, 0).value(),
              topo.node(1).srate.value() *
                  piece.IntegralOver(piece.Support()),
              1e-6);
}

INSTANTIATE_TEST_SUITE_P(Durations, StorageCostSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           1.0, 1.1, 2.0, 5.0, 24.0));

}  // namespace
}  // namespace vor
