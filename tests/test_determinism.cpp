// Determinism regression: the solved schedule must be byte-identical at
// any thread count.  Phase 1 shards per-file greedies that each write
// only their own slot; SORP fans each round's tentative victim
// evaluations out but reduces the victim serially with a deterministic
// tie-break (max heat, then smallest file index, then discovery order)
// and commits serially — so parallelism may only change wall-time, never
// the schedule.  Serialization via src/io pins the claim down to bytes.
#include <gtest/gtest.h>

#include <string>

#include "core/scheduler.hpp"
#include "core/sorp.hpp"
#include "io/serialize.hpp"
#include "net/routing.hpp"
#include "util/thread_pool.hpp"
#include "workload/scenario.hpp"

namespace vor::core {
namespace {

/// Schedule bytes of VorScheduler::Solve at `threads`, or with
/// `incremental` of IncrementalSolve from an empty previous solution —
/// the same two-phase solve, so the bytes must match.
std::string SolveToBytes(const workload::Scenario& scenario,
                         std::size_t threads, bool incremental = false) {
  SchedulerOptions options;
  options.parallel.threads = threads;
  const VorScheduler scheduler(scenario.topology, scenario.catalog, options);
  const auto result =
      incremental
          ? IncrementalSolve(scheduler, SolveOutput{}, scenario.requests, 0)
          : scheduler.Solve(scenario.requests);
  EXPECT_TRUE(result.ok());
  return io::ToJson(result->schedule).Dump(2);
}

TEST(DeterminismTest, Table4ScheduleBytesIdenticalAcrossThreadCounts) {
  // The paper's Table-4 operating point (seeded); SORP is a no-op here,
  // so this pins the phase-1 fan-out.
  const workload::Scenario scenario = workload::MakeScenario({});
  const std::string serial = SolveToBytes(scenario, 1);
  EXPECT_FALSE(serial.empty());
  for (const std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(SolveToBytes(scenario, threads), serial)
        << "schedule bytes diverged at " << threads << " threads";
  }
  for (const std::size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(SolveToBytes(scenario, threads, /*incremental=*/true), serial)
        << "IncrementalSolve from nothing diverged at " << threads
        << " threads";
  }
}

TEST(DeterminismTest, TightCapacityScheduleBytesIdenticalAcrossThreadCounts) {
  // Tight capacity forces overflow resolution, so the parallel tentative
  // victim evaluations and the serial commit/tie-break are exercised.
  workload::ScenarioParams params;
  params.is_capacity = util::GB(5);
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  const workload::Scenario scenario = workload::MakeScenario(params);

  SchedulerOptions probe;
  const VorScheduler scheduler(scenario.topology, scenario.catalog, probe);
  const auto check = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(check.ok());
  ASSERT_TRUE(check->sorp.HadOverflow()) << "scenario must engage SORP";

  const std::string serial = SolveToBytes(scenario, 1);
  for (const std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(SolveToBytes(scenario, threads), serial)
        << "schedule bytes diverged at " << threads << " threads";
  }
  for (const std::size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(SolveToBytes(scenario, threads, /*incremental=*/true), serial)
        << "IncrementalSolve from nothing diverged at " << threads
        << " threads";
  }
}

TEST(DeterminismTest, SorpStatsMatchAcrossThreadCounts) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(5);
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  const workload::Scenario scenario = workload::MakeScenario(params);
  const net::Router router(scenario.topology);
  const CostModel cm(scenario.topology, router, scenario.catalog);

  const Schedule phase1 = IvspSolve(scenario.requests, cm, IvspOptions{});
  Schedule serial = phase1;
  const SorpStats serial_stats =
      SorpSolve(serial, scenario.requests, cm, SorpOptions{});
  ASSERT_TRUE(serial_stats.HadOverflow());

  for (const std::size_t threads : {2u, 8u}) {
    util::ThreadPool pool(threads);
    Schedule parallel = phase1;
    SorpOptions options;
    options.pool = &pool;
    const SorpStats stats =
        SorpSolve(parallel, scenario.requests, cm, options);
    EXPECT_EQ(stats.victims_rescheduled, serial_stats.victims_rescheduled);
    EXPECT_EQ(stats.evaluations, serial_stats.evaluations);
    EXPECT_DOUBLE_EQ(stats.cost_after.value(),
                     serial_stats.cost_after.value());
    EXPECT_EQ(io::ToJson(parallel).Dump(), io::ToJson(serial).Dump());
  }
}

TEST(DeterminismTest, IncrementalSolveBytesIdenticalAcrossThreadCounts) {
  const workload::Scenario scenario = workload::MakeScenario({});
  const std::size_t split = scenario.requests.size() - 20;
  const std::vector<workload::Request> original(
      scenario.requests.begin(), scenario.requests.begin() + split);
  const std::vector<workload::Request> late(
      scenario.requests.begin() + split, scenario.requests.end());

  std::string reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SchedulerOptions options;
    options.parallel.threads = threads;
    const VorScheduler scheduler(scenario.topology, scenario.catalog, options);
    const auto base = scheduler.Solve(original);
    ASSERT_TRUE(base.ok());
    std::vector<workload::Request> merged = original;
    merged.insert(merged.end(), late.begin(), late.end());
    const auto result =
        IncrementalSolve(scheduler, *base, merged, original.size());
    ASSERT_TRUE(result.ok());
    const std::string bytes = io::ToJson(result->schedule).Dump(2);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference)
          << "incremental schedule bytes diverged at " << threads
          << " threads";
    }
  }
}

}  // namespace
}  // namespace vor::core
