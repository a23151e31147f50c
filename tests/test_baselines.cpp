#include <gtest/gtest.h>

#include "baseline/network_only.hpp"
#include "core/overflow.hpp"
#include "core/scheduler.hpp"
#include "sim/validator.hpp"
#include "test_helpers.hpp"
#include "workload/scenario.hpp"

namespace vor::baseline {
namespace {

struct ScenarioEnv {
  ScenarioEnv() : scenario(workload::MakeScenario({})),
                  router(scenario.topology),
                  cm(scenario.topology, router, scenario.catalog) {}
  workload::Scenario scenario;
  net::Router router;
  core::CostModel cm;
};

TEST(NetworkOnlyTest, OneDeliveryPerRequestAllFromVw) {
  ScenarioEnv env;
  const core::Schedule s = NetworkOnlySchedule(env.scenario.requests, env.cm);
  EXPECT_EQ(s.TotalDeliveries(), env.scenario.requests.size());
  EXPECT_EQ(s.TotalResidencies(), 0u);
  for (const core::FileSchedule& f : s.files) {
    for (const core::Delivery& d : f.deliveries) {
      EXPECT_EQ(d.origin(), env.scenario.topology.warehouse());
    }
  }
}

TEST(NetworkOnlyTest, ValidatesAndNeverOverflows) {
  ScenarioEnv env;
  const core::Schedule s = NetworkOnlySchedule(env.scenario.requests, env.cm);
  EXPECT_TRUE(core::DetectOverflows(s, env.cm).empty());
  const auto report =
      sim::ValidateSchedule(s, env.scenario.requests, env.cm);
  EXPECT_TRUE(report.ok());
}

TEST(NetworkOnlyTest, CostScalesLinearlyWithNrate) {
  workload::ScenarioParams p1;
  p1.nrate_per_gb = 300;
  workload::ScenarioParams p2;
  p2.nrate_per_gb = 600;
  const workload::Scenario s1 = workload::MakeScenario(p1);
  const workload::Scenario s2 = workload::MakeScenario(p2);
  const net::Router r1(s1.topology);
  const net::Router r2(s2.topology);
  const core::CostModel cm1(s1.topology, r1, s1.catalog);
  const core::CostModel cm2(s2.topology, r2, s2.catalog);
  const double c1 =
      cm1.TotalCost(NetworkOnlySchedule(s1.requests, cm1)).value();
  const double c2 =
      cm2.TotalCost(NetworkOnlySchedule(s2.requests, cm2)).value();
  EXPECT_NEAR(c2 / c1, 2.0, 1e-6);
}

TEST(BaselineOrderingTest, TwoPhaseSchedulerBeatsBothBaselines) {
  // The cost-driven scheduler must strictly beat the no-cache baseline on
  // the default operating point.  The online-LRU half of the ordering is
  // OnlineLruTest.OfflineSchedulerBeatsOnlineOnDefaultScenario.
  ScenarioEnv env;
  core::VorScheduler scheduler(env.scenario.topology, env.scenario.catalog);
  const auto result = scheduler.Solve(env.scenario.requests);
  ASSERT_TRUE(result.ok());
  const double direct =
      env.cm.TotalCost(NetworkOnlySchedule(env.scenario.requests, env.cm))
          .value();
  EXPECT_LT(result->final_cost.value(), direct);
}

}  // namespace
}  // namespace vor::baseline
