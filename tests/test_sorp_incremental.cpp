// Golden byte-identity of the production SORP engine (delta-maintained
// storage::Load, subtractive dry-run views, pooled evaluations)
// against the test-only reference loop (tests/reference_sorp.hpp), for
// every heat metric, both victim policies, any thread count, and runs the
// round cap stops early.  Also pins the tracker's one-build accounting.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/heat.hpp"
#include "core/ivsp.hpp"
#include "core/sorp.hpp"
#include "io/serialize.hpp"
#include "net/routing.hpp"
#include "reference_sorp.hpp"
#include "util/thread_pool.hpp"
#include "workload/scenario.hpp"

namespace vor::core {
namespace {

struct EngineRun {
  std::string bytes;
  SorpStats stats;
};

/// The paper's Table-4 tight operating point: small enough to solve in
/// milliseconds, tight enough that SORP runs a real multi-round shootout.
struct TightEnv {
  TightEnv() {
    workload::ScenarioParams params;
    params.is_capacity = util::GB(5);
    params.nrate_per_gb = 1000;
    params.srate_per_gb_hour = 3;
    scenario = workload::MakeScenario(params);
    router.emplace(scenario.topology);
    cm.emplace(scenario.topology, *router, scenario.catalog);
    phase1 = IvspSolve(scenario.requests, *cm, IvspOptions{});
  }
  workload::Scenario scenario;
  std::optional<net::Router> router;
  std::optional<CostModel> cm;
  Schedule phase1;
};

/// Runs the production engine (`reference == false`) or the oracle on a
/// copy of the phase-1 schedule.
EngineRun RunEngine(const TightEnv& env, const SorpOptions& options,
                    bool reference) {
  Schedule schedule = env.phase1;
  EngineRun run;
  run.stats = reference ? oracle::ReferenceSorpSolve(
                              schedule, env.scenario.requests, *env.cm, options)
                        : SorpSolve(schedule, env.scenario.requests, *env.cm,
                                    options);
  run.bytes = io::ToJson(schedule).Dump(2);
  return run;
}

TEST(SorpIncrementalGoldenTest, AllMetricsPoliciesAndThreadCountsMatch) {
  const TightEnv env;
  const std::vector<HeatMetric> metrics{
      HeatMetric::kImprovedLength, HeatMetric::kLengthPerCost,
      HeatMetric::kTimeSpace, HeatMetric::kTimeSpacePerCost};
  const std::vector<VictimPolicy> policies{VictimPolicy::kMaxHeat,
                                           VictimPolicy::kFirstContributor};
  // Uncapped, plus caps that stop the loop after 1 and 3 commits.
  const std::size_t uncapped = SorpOptions{}.max_iterations;
  for (const HeatMetric heat : metrics) {
    for (const VictimPolicy policy : policies) {
      for (const std::size_t cap : {uncapped, std::size_t{1}, std::size_t{3}}) {
        SorpOptions options;
        options.heat = heat;
        options.victim_policy = policy;
        options.max_iterations = cap;
        const EngineRun reference = RunEngine(env, options, /*reference=*/true);
        ASSERT_TRUE(reference.stats.HadOverflow())
            << "scenario must engage SORP";
        if (cap != uncapped) {
          EXPECT_EQ(reference.stats.victims_rescheduled, cap)
              << "the cap must stop the loop early";
          EXPECT_FALSE(reference.stats.Resolved());
        }
        for (const std::size_t threads : {1u, 2u, 8u}) {
          std::optional<util::ThreadPool> pool;
          if (threads > 1) pool.emplace(threads);
          options.pool = pool.has_value() ? &*pool : nullptr;
          const EngineRun run = RunEngine(env, options, /*reference=*/false);
          EXPECT_EQ(run.bytes, reference.bytes)
              << "engines diverged: heat=" << ToString(heat)
              << " policy=" << static_cast<int>(policy) << " cap=" << cap
              << " threads=" << threads;
          EXPECT_EQ(run.stats.victims_rescheduled,
                    reference.stats.victims_rescheduled);
          EXPECT_EQ(run.stats.evaluations, reference.stats.evaluations);
          EXPECT_DOUBLE_EQ(run.stats.final_excess,
                           reference.stats.final_excess);
          EXPECT_DOUBLE_EQ(run.stats.cost_after.value(),
                           reference.stats.cost_after.value());
        }
      }
    }
  }
}

TEST(SorpIncrementalTest, TrackerBuildsUsageOnce) {
  const TightEnv env;
  const EngineRun run = RunEngine(env, SorpOptions{}, /*reference=*/false);
  ASSERT_TRUE(run.stats.HadOverflow());
  ASSERT_GT(run.stats.victims_rescheduled, 1u);
  // The aggregate is built exactly once; commits are diffs, not rebuilds.
  EXPECT_EQ(run.stats.usage_rebuilds, 1u);
}

TEST(SorpIncrementalTest, CapacityUnawareAblationStillMatchesReference) {
  // With capacity_aware_reschedule off, dry runs consult no other file's
  // space at all.  The engines must still agree byte-for-byte.
  const TightEnv env;
  SorpOptions options;
  options.capacity_aware_reschedule = false;
  const EngineRun run = RunEngine(env, options, /*reference=*/false);
  const EngineRun reference = RunEngine(env, options, /*reference=*/true);
  EXPECT_EQ(run.bytes, reference.bytes);
  EXPECT_EQ(run.stats.victims_rescheduled,
            reference.stats.victims_rescheduled);
}

}  // namespace
}  // namespace vor::core
