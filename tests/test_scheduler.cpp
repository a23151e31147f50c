#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include "baseline/network_only.hpp"
#include "core/overflow.hpp"
#include "sim/validator.hpp"
#include "test_helpers.hpp"
#include "workload/scenario.hpp"

namespace vor::core {
namespace {

TEST(SchedulerTest, SolvesPaperDefaultScenario) {
  const workload::Scenario scenario = workload::MakeScenario({});
  VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto result = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->final_cost.value(), 0.0);
  EXPECT_TRUE(DetectOverflows(result->schedule, scheduler.cost_model()).empty());

  const auto report = sim::ValidateSchedule(
      result->schedule, scenario.requests, scheduler.cost_model());
  EXPECT_TRUE(report.ok());
  for (const auto& v : report.violations) {
    ADD_FAILURE() << sim::ToString(v.kind) << ": " << v.detail;
  }
}

TEST(SchedulerTest, BeatsNetworkOnlyOnDefaultScenario) {
  const workload::Scenario scenario = workload::MakeScenario({});
  VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto result = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(result.ok());
  const Schedule direct =
      baseline::NetworkOnlySchedule(scenario.requests, scheduler.cost_model());
  EXPECT_LT(result->final_cost.value(),
            scheduler.cost_model().TotalCost(direct).value());
}

TEST(SchedulerTest, RejectsUnknownVideo) {
  const workload::Scenario scenario = workload::MakeScenario({});
  VorScheduler scheduler(scenario.topology, scenario.catalog);
  std::vector<workload::Request> requests = scenario.requests;
  requests[0].video = 99999;
  const auto result = scheduler.Solve(requests);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::Error::Code::kNotFound);
}

TEST(SchedulerTest, RejectsBadNeighborhood) {
  const workload::Scenario scenario = workload::MakeScenario({});
  VorScheduler scheduler(scenario.topology, scenario.catalog);
  std::vector<workload::Request> requests = scenario.requests;
  requests[0].neighborhood = scenario.topology.warehouse();
  const auto result = scheduler.Solve(requests);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::Error::Code::kInvalidArgument);
  // A start time no trace or service intake would accept is refused too.
  requests = scenario.requests;
  requests[0].start_time = util::Seconds{-3600.0};
  const auto negative = scheduler.Solve(requests);
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.error().code, util::Error::Code::kInvalidArgument);
}

TEST(SchedulerTest, EmptyRequestSetYieldsEmptySchedule) {
  const workload::Scenario scenario = workload::MakeScenario({});
  VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto result = scheduler.Solve({});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schedule.files.size(), 0u);
  EXPECT_DOUBLE_EQ(result->final_cost.value(), 0.0);
}

TEST(SchedulerTest, Phase1CostNeverBelowFinalWhenNoOverflow) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(100);  // plenty: SORP is a no-op
  const workload::Scenario scenario = workload::MakeScenario(params);
  VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto result = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->phase1_cost.value(), result->final_cost.value());
  EXPECT_FALSE(result->sorp.HadOverflow());
}

TEST(SchedulerTest, TightCapacityTriggersAndResolvesOverflow) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(5);
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  const workload::Scenario scenario = workload::MakeScenario(params);
  VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto result = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->sorp.HadOverflow());
  EXPECT_TRUE(result->sorp.Resolved());
  EXPECT_GE(result->final_cost.value(), result->phase1_cost.value() - 1e-6);
}

TEST(SchedulerTest, HeatMetricOptionChangesBehaviourConsistently) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(5);
  params.nrate_per_gb = 900;
  params.srate_per_gb_hour = 3;
  const workload::Scenario scenario = workload::MakeScenario(params);

  for (const auto metric :
       {HeatMetric::kImprovedLength, HeatMetric::kLengthPerCost,
        HeatMetric::kTimeSpace, HeatMetric::kTimeSpacePerCost}) {
    SchedulerOptions options;
    options.heat = metric;
    VorScheduler scheduler(scenario.topology, scenario.catalog, options);
    const auto result = scheduler.Solve(scenario.requests);
    ASSERT_TRUE(result.ok()) << ToString(metric);
    EXPECT_TRUE(result->sorp.Resolved()) << ToString(metric);
    EXPECT_TRUE(
        DetectOverflows(result->schedule, scheduler.cost_model()).empty())
        << ToString(metric);
  }
}

TEST(SchedulerTest, EndToEndPricingProducesValidSchedules) {
  const workload::Scenario scenario = workload::MakeScenario({});
  SchedulerOptions options;
  options.pricing.basis = PricingBasis::kEndToEnd;
  options.pricing.e2e_discount = 0.85;
  VorScheduler scheduler(scenario.topology, scenario.catalog, options);
  const auto result = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(result.ok());
  const auto report = sim::ValidateSchedule(
      result->schedule, scenario.requests, scheduler.cost_model());
  EXPECT_TRUE(report.ok());
}

}  // namespace
}  // namespace vor::core
