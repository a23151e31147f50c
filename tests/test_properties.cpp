// Cross-cutting property tests: invariants that must hold for every
// scheduler output over randomized environments (parameterized by seed).
#include <gtest/gtest.h>

#include "baseline/network_only.hpp"
#include "baseline/online_lru.hpp"
#include "core/overflow.hpp"
#include "core/scheduler.hpp"
#include "sim/validator.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace vor {
namespace {

workload::ScenarioParams RandomParams(std::uint64_t seed) {
  util::Rng rng(seed);
  workload::ScenarioParams p;
  p.nrate_per_gb = rng.Uniform(100.0, 1200.0);
  p.srate_per_gb_hour = rng.Uniform(0.5, 50.0);
  p.is_capacity = util::GB(rng.Uniform(4.0, 20.0));
  p.zipf_alpha = rng.Uniform(0.05, 0.9);
  p.storage_count = 5 + rng.NextBounded(15);
  p.users_per_neighborhood = 3 + rng.NextBounded(10);
  p.catalog_size = 50 + rng.NextBounded(200);
  p.seed = rng.NextU64();
  return p;
}

class SchedulerInvariants : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerInvariants, HoldOnRandomEnvironments) {
  const workload::ScenarioParams params =
      RandomParams(static_cast<std::uint64_t>(GetParam()) * 2654435761ULL);
  const workload::Scenario scenario = workload::MakeScenario(params);
  core::VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto result = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(result.ok());

  // 1. Overflow free.
  EXPECT_TRUE(result->sorp.Resolved());
  EXPECT_TRUE(
      core::DetectOverflows(result->schedule, scheduler.cost_model()).empty());

  // 2. Physically executable.
  const auto report = sim::ValidateSchedule(
      result->schedule, scenario.requests, scheduler.cost_model());
  EXPECT_TRUE(report.ok());
  for (const auto& v : report.violations) {
    ADD_FAILURE() << sim::ToString(v.kind) << ": " << v.detail;
  }

  // 3. Never worse than serving everything from the warehouse — the
  // network-only schedule is always feasible, and the rejective greedy
  // always has it in its search space.
  const core::Schedule direct = baseline::NetworkOnlySchedule(
      scenario.requests, scheduler.cost_model());
  const double direct_cost =
      scheduler.cost_model().TotalCost(direct).value();
  // Phase 1 is a per-file minimum over a superset of the direct option;
  // the SORP can only raise it toward (never beyond a reasonable factor
  // of) the direct cost.  We assert the strong bound for phase 1 and a
  // sanity bound for the final schedule.
  EXPECT_LE(result->phase1_cost.value(), direct_cost + 1e-6);

  // 4. Cost bookkeeping is internally consistent.
  EXPECT_NEAR(result->final_cost.value(),
              scheduler.cost_model().TotalCost(result->schedule).value(),
              1e-6);
  EXPECT_GE(result->final_cost.value(), 0.0);

  // 5. Deliveries cover requests bijectively (via validator above), and
  // every residency actually serves someone or is free.
  for (const core::FileSchedule& f : result->schedule.files) {
    for (const core::Residency& c : f.residencies) {
      if (c.services.empty()) {
        EXPECT_DOUBLE_EQ(
            scheduler.cost_model().ResidencyCost(c, f.video).value(), 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerInvariants, ::testing::Range(1, 13));

class SorpNeverWorseThanDirect : public ::testing::TestWithParam<int> {};

TEST_P(SorpNeverWorseThanDirect, FinalCostBoundedByDirectPlusResolution) {
  // The final (feasible) cost can exceed phase 1, but a sane resolver
  // should stay below the all-direct cost: pushing every overflowing file
  // fully back to the warehouse is always within its reach.
  const workload::ScenarioParams params =
      RandomParams(0xFEEDULL + static_cast<std::uint64_t>(GetParam()));
  const workload::Scenario scenario = workload::MakeScenario(params);
  core::VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto result = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(result.ok());
  const core::Schedule direct = baseline::NetworkOnlySchedule(
      scenario.requests, scheduler.cost_model());
  EXPECT_LE(result->final_cost.value(),
            scheduler.cost_model().TotalCost(direct).value() * 1.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SorpNeverWorseThanDirect,
                         ::testing::Range(1, 9));

class DeterminismProperty : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismProperty, IdenticalRunsProduceIdenticalSchedules) {
  const workload::ScenarioParams params =
      RandomParams(0xABCDULL + static_cast<std::uint64_t>(GetParam()));
  const workload::Scenario s1 = workload::MakeScenario(params);
  const workload::Scenario s2 = workload::MakeScenario(params);
  core::VorScheduler sched1(s1.topology, s1.catalog);
  core::VorScheduler sched2(s2.topology, s2.catalog);
  const auto r1 = sched1.Solve(s1.requests);
  const auto r2 = sched2.Solve(s2.requests);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r1->final_cost.value(), r2->final_cost.value());
  EXPECT_EQ(r1->schedule.TotalDeliveries(), r2->schedule.TotalDeliveries());
  EXPECT_EQ(r1->schedule.TotalResidencies(), r2->schedule.TotalResidencies());
  EXPECT_EQ(r1->sorp.victims_rescheduled, r2->sorp.victims_rescheduled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismProperty, ::testing::Range(1, 7));

class BaselineInvariants : public ::testing::TestWithParam<int> {};

TEST_P(BaselineInvariants, EveryBaselineProducesValidFeasibleSchedules) {
  const workload::ScenarioParams params =
      RandomParams(0xBA5EULL + static_cast<std::uint64_t>(GetParam()));
  const workload::Scenario scenario = workload::MakeScenario(params);
  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);

  const auto check = [&](const core::Schedule& s, const char* name) {
    EXPECT_TRUE(core::DetectOverflows(s, cm).empty()) << name;
    const auto report = sim::ValidateSchedule(s, scenario.requests, cm);
    EXPECT_TRUE(report.ok()) << name;
    for (const auto& v : report.violations) {
      ADD_FAILURE() << name << ": " << sim::ToString(v.kind) << " "
                    << v.detail;
    }
  };
  check(baseline::NetworkOnlySchedule(scenario.requests, cm), "network-only");
  check(baseline::OnlineLruSchedule(scenario.requests, cm).schedule,
        "online-lru");
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineInvariants, ::testing::Range(1, 11));

class GreedyMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(GreedyMonotonicity, ServingMoreRequestsNeverGetsCheaper) {
  // Adding one request to a file can only add cost: the greedy's partial
  // plans are prefixes, so the cost after k requests is non-decreasing
  // in k.
  util::Rng rng(0x517EULL + static_cast<std::uint64_t>(GetParam()));
  workload::ScenarioParams params = RandomParams(rng.NextU64());
  params.users_per_neighborhood = 6;
  const workload::Scenario scenario = workload::MakeScenario(params);
  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);

  // Pick the most requested video for a meaningful prefix chain.
  const auto groups = workload::GroupByVideo(scenario.requests);
  const auto busiest = std::max_element(
      groups.begin(), groups.end(), [](const auto& a, const auto& b) {
        return a.second.size() < b.second.size();
      });
  ASSERT_NE(busiest, groups.end());
  const auto& [video, indices] = *busiest;

  double prev_cost = 0.0;
  for (std::size_t k = 1; k <= indices.size(); ++k) {
    const std::vector<std::size_t> prefix(indices.begin(),
                                          indices.begin() + k);
    const core::FileSchedule f = core::ScheduleFileGreedy(
        video, scenario.requests, prefix, cm, core::IvspOptions{}, nullptr);
    const double cost = cm.FileCost(f).value();
    EXPECT_GE(cost, prev_cost - 1e-9) << "prefix length " << k;
    prev_cost = cost;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyMonotonicity, ::testing::Range(1, 9));

}  // namespace
}  // namespace vor
