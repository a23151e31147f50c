#include "core/ivsp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "baseline/network_only.hpp"
#include "core/scheduler.hpp"
#include "io/binary.hpp"
#include "sim/validator.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace vor::core {
namespace {

using testing::OneVideoCatalog;
using testing::SmallTopology;

struct Env {
  explicit Env(std::size_t storages, double srate_per_gb_hour = 1.0)
      : topo(SmallTopology(storages, 10.0, srate_per_gb_hour)),
        catalog(OneVideoCatalog()),
        router(topo),
        cm(topo, router, catalog) {}
  net::Topology topo;
  media::Catalog catalog;
  net::Router router;
  CostModel cm;
};

TEST(IvspTest, SingleRequestGoesDirect) {
  Env env(3);
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(1), 2},
  };
  const FileSchedule f =
      ScheduleFileGreedy(0, requests, {0}, env.cm, IvspOptions{}, nullptr);
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_EQ(f.deliveries[0].origin(), env.topo.warehouse());
  EXPECT_EQ(f.deliveries[0].destination(), 2u);
  EXPECT_TRUE(f.residencies.empty());
}

TEST(IvspTest, RepeatRequestsShareCache) {
  // Two requests in the same (far) neighborhood close in time: the second
  // should come from a local cache, not a fresh 3-hop delivery.
  Env env(3);
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(1.0), 3},
      {1, 0, util::Hours(1.5), 3},
  };
  const FileSchedule f =
      ScheduleFileGreedy(0, requests, {0, 1}, env.cm, IvspOptions{}, nullptr);
  ASSERT_EQ(f.deliveries.size(), 2u);
  ASSERT_EQ(f.residencies.size(), 1u);
  EXPECT_EQ(f.residencies[0].location, 3u);
  EXPECT_EQ(f.residencies[0].services, (std::vector<std::size_t>{1}));
  EXPECT_EQ(f.deliveries[1].origin(), 3u);
  // Residency anchored at the first delivery's pass-through.
  EXPECT_DOUBLE_EQ(f.residencies[0].t_start.value(), 3600.0);
  EXPECT_DOUBLE_EQ(f.residencies[0].t_last.value(), 1.5 * 3600.0);
}

TEST(IvspTest, ExpensiveStorageDisablesCaching) {
  // With storage orders of magnitude above network cost the greedy must
  // fall back to direct deliveries.
  Env env(3, /*srate_per_gb_hour=*/1e6);
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(1.0), 3},
      {1, 0, util::Hours(5.0), 3},
      {2, 0, util::Hours(9.0), 3},
  };
  const FileSchedule f = ScheduleFileGreedy(0, requests, {0, 1, 2}, env.cm,
                                            IvspOptions{}, nullptr);
  EXPECT_TRUE(f.residencies.empty());
  for (const Delivery& d : f.deliveries) {
    EXPECT_EQ(d.origin(), env.topo.warehouse());
  }
}

TEST(IvspTest, CacheExtensionAccumulatesServices) {
  Env env(2);
  std::vector<workload::Request> requests;
  for (int i = 0; i < 5; ++i) {
    requests.push_back({static_cast<workload::UserId>(i), 0,
                        util::Hours(1.0 + 0.25 * i), 2});
  }
  const FileSchedule f = ScheduleFileGreedy(0, requests, {0, 1, 2, 3, 4},
                                            env.cm, IvspOptions{}, nullptr);
  ASSERT_EQ(f.residencies.size(), 1u);
  EXPECT_EQ(f.residencies[0].services.size(), 4u);
  EXPECT_DOUBLE_EQ(f.residencies[0].t_last.value(), 2.0 * 3600.0);
}

TEST(IvspTest, RemoteCachingFlagRestrictsPlacement) {
  Env env(3);
  // Users in neighborhoods 2 and 3; a shared cache at 2 serving 3 would be
  // remote service.
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(1.0), 2},
      {1, 0, util::Hours(1.2), 3},
      {2, 0, util::Hours(1.4), 3},
  };
  IvspOptions options;
  options.allow_remote_caching = false;
  options.allow_remote_cache_service = false;
  const FileSchedule f =
      ScheduleFileGreedy(0, requests, {0, 1, 2}, env.cm, options, nullptr);
  for (const Residency& c : f.residencies) {
    // Every service of a cache must be local to it.
    for (const std::size_t idx : c.services) {
      EXPECT_EQ(requests[idx].neighborhood, c.location);
    }
  }
}

TEST(IvspTest, ForbiddenWindowRejectsCaching) {
  Env env(2);
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(1.0), 2},
      {1, 0, util::Hours(1.5), 2},
  };
  ConstraintSet constraints;
  // Forbid residency at node 2 around the whole period.
  constraints.forbidden = {{2u, util::Interval{util::Hours(0), util::Hours(5)}}};
  const FileSchedule f =
      ScheduleFileGreedy(0, requests, {0, 1}, env.cm, IvspOptions{}, &constraints);
  for (const Residency& c : f.residencies) EXPECT_NE(c.location, 2u);
}

TEST(IvspTest, CapacityConstraintRejectsOversizedCache) {
  Env env(2);
  // Node capacities are 100 GB by default; shrink node 2 below the video
  // size so caching there is impossible under constraints.
  env.topo.SetUniformStorageCapacity(util::Bytes{0.5e9});
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(1.0), 2},
      {1, 0, util::Hours(1.5), 2},
  };
  ConstraintSet constraints;
  const storage::Load empty_load(Schedule{}, env.cm);
  const storage::LoadView empty_view = empty_load.Excluding(0);
  constraints.load = &empty_view;
  const FileSchedule f =
      ScheduleFileGreedy(0, requests, {0, 1}, env.cm, IvspOptions{}, &constraints);
  // gamma = 0.5h / 1h = 0.5 -> piece height 0.5 GB == capacity, fits; but
  // extending further would not.  At minimum no residency may exceed cap.
  Schedule s;
  s.files.push_back(f);
  const storage::Load load(s, env.cm);
  for (std::size_t k = 0; k < load.keys().size(); ++k) {
    EXPECT_LE(load.timeline(k).Max(), load.keys()[k].cap + 1.0);
  }
}

TEST(IvspTest, IvspSolveNeverBeatenByNetworkOnly) {
  const workload::Scenario scenario = workload::MakeScenario({});
  const net::Router router(scenario.topology);
  const CostModel cm(scenario.topology, router, scenario.catalog);
  const Schedule greedy = IvspSolve(scenario.requests, cm, IvspOptions{});
  const Schedule direct =
      baseline::NetworkOnlySchedule(scenario.requests, cm);
  EXPECT_LE(cm.TotalCost(greedy).value(), cm.TotalCost(direct).value() + 1e-6);
}

TEST(IvspTest, EveryRequestServedExactlyOnce) {
  const workload::Scenario scenario = workload::MakeScenario({});
  const net::Router router(scenario.topology);
  const CostModel cm(scenario.topology, router, scenario.catalog);
  const Schedule s = IvspSolve(scenario.requests, cm, IvspOptions{});
  sim::ValidationOptions options;
  options.check_capacity = false;  // phase 1 may overflow by design
  const auto report = sim::ValidateSchedule(s, scenario.requests, cm, options);
  EXPECT_TRUE(report.ok());
  for (const auto& v : report.violations) {
    ADD_FAILURE() << sim::ToString(v.kind) << ": " << v.detail;
  }
}

TEST(IvspTest, ParallelPhaseOneMatchesSerial) {
  const workload::Scenario scenario = workload::MakeScenario({});
  const net::Router router(scenario.topology);
  const CostModel cm(scenario.topology, router, scenario.catalog);
  const Schedule serial = IvspSolve(scenario.requests, cm, IvspOptions{});
  util::ThreadPool pool(4);
  const Schedule parallel =
      IvspSolve(scenario.requests, cm, IvspOptions{}, &pool);
  ASSERT_EQ(parallel.files.size(), serial.files.size());
  EXPECT_DOUBLE_EQ(cm.TotalCost(parallel).value(),
                   cm.TotalCost(serial).value());
  for (std::size_t f = 0; f < serial.files.size(); ++f) {
    EXPECT_EQ(parallel.files[f].video, serial.files[f].video);
    EXPECT_EQ(parallel.files[f].deliveries.size(),
              serial.files[f].deliveries.size());
    EXPECT_EQ(parallel.files[f].residencies.size(),
              serial.files[f].residencies.size());
  }
}

TEST(IvspTest, SchedulerThreadOptionKeepsResultsIdentical) {
  const workload::Scenario scenario = workload::MakeScenario({});
  core::SchedulerOptions serial_options;
  core::SchedulerOptions parallel_options;
  parallel_options.parallel.threads = 4;
  VorScheduler serial(scenario.topology, scenario.catalog, serial_options);
  VorScheduler parallel(scenario.topology, scenario.catalog, parallel_options);
  const auto a = serial.Solve(scenario.requests);
  const auto b = parallel.Solve(scenario.requests);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->phase1_cost.value(), b->phase1_cost.value());
  EXPECT_DOUBLE_EQ(a->final_cost.value(), b->final_cost.value());
}

TEST(IvspTest, GreedyIsDeterministic) {
  const workload::Scenario scenario = workload::MakeScenario({});
  const net::Router router(scenario.topology);
  const CostModel cm(scenario.topology, router, scenario.catalog);
  const Schedule a = IvspSolve(scenario.requests, cm, IvspOptions{});
  const Schedule b = IvspSolve(scenario.requests, cm, IvspOptions{});
  EXPECT_DOUBLE_EQ(cm.TotalCost(a).value(), cm.TotalCost(b).value());
  EXPECT_EQ(a.TotalDeliveries(), b.TotalDeliveries());
  EXPECT_EQ(a.TotalResidencies(), b.TotalResidencies());
}

/// A random small uncapped instance: a chain of 3-6 storages with random
/// link rates and one VW shortcut, random storage rates, one 1 GB / 1 h
/// title, and 2-14 requests on a quarter-hour grid, so start times tie.
struct RandomInstance {
  explicit RandomInstance(util::Rng& rng) {
    const net::NodeId vw = topo.AddWarehouse("VW");
    const util::StorageRate srate{rng.Uniform(0.2, 5.0) / 3.6e12};
    const std::size_t storages = 3 + rng.NextBounded(4);
    std::vector<net::NodeId> nodes;
    net::NodeId prev = vw;
    for (std::size_t i = 0; i < storages; ++i) {
      const net::NodeId n =
          topo.AddStorage("IS" + std::to_string(i), util::GB(100), srate);
      topo.AddLink(prev, n, util::NetworkRate{rng.Uniform(5.0, 20.0) / 1e9});
      nodes.push_back(n);
      prev = n;
    }
    topo.AddLink(vw, nodes.back(),
                 util::NetworkRate{rng.Uniform(10.0, 40.0) / 1e9});
    catalog = OneVideoCatalog();
    const std::size_t n = 2 + rng.NextBounded(13);
    for (std::size_t i = 0; i < n; ++i) {
      requests.push_back(
          {static_cast<workload::UserId>(i), 0,
           util::Minutes(15.0 * static_cast<double>(rng.NextBounded(48))),
           nodes[rng.NextBounded(nodes.size())]});
    }
  }
  net::Topology topo;
  media::Catalog catalog;
  std::vector<workload::Request> requests;
};

std::string Bytes(const FileSchedule& file) {
  Schedule s;
  s.files.push_back(file);
  return io::ScheduleToBinary(s);
}

TEST(IvspResumeTest, ResumeAtEverySplitEqualsStraightRun) {
  util::Rng rng(20240611);
  for (int trial = 0; trial < 60; ++trial) {
    const RandomInstance inst(rng);
    const net::Router router(inst.topo);
    const CostModel cm(inst.topo, router, inst.catalog);
    IvspOptions options;
    options.allow_remote_caching = rng.NextBounded(4) != 0;
    options.allow_remote_cache_service = rng.NextBounded(4) != 0;
    const std::vector<std::size_t> indices =
        workload::GroupByVideo(inst.requests).front().second;
    const std::string straight = Bytes(ScheduleFileGreedy(
        0, inst.requests, indices, cm, options, nullptr));
    for (std::size_t kept = 0; kept <= indices.size(); ++kept) {
      // The committed plan covers the first `kept` requests and a random
      // subset of the rest, as a title's plan does before a close merges
      // new requests in between its later ones.
      std::vector<std::size_t> old(
          indices.begin(),
          indices.begin() + static_cast<std::ptrdiff_t>(kept));
      for (std::size_t i = kept; i < indices.size(); ++i) {
        if (rng.NextBounded(2) == 0) old.push_back(indices[i]);
      }
      const FileSchedule plan =
          ScheduleFileGreedy(0, inst.requests, old, cm, options, nullptr);
      // Resume a copy in place: cut it back to the first `kept` requests,
      // then serve the rest of the list on from there.
      FileSchedule resumed = plan;
      PlanCut cut = CutPlan(resumed, kept, inst.requests);
      EXPECT_EQ(cut.deliveries().size(), old.size() - kept);
      const std::vector<std::size_t> rest(
          indices.begin() + static_cast<std::ptrdiff_t>(kept), indices.end());
      GreedyStats stats;
      ExtendFileGreedy(resumed, inst.requests, rest, cm, options, nullptr,
                       &stats);
      EXPECT_EQ(Bytes(resumed), straight)
          << "trial " << trial << ", kept " << kept << " of "
          << indices.size();
      EXPECT_EQ(stats.requests, indices.size() - kept);
      std::move(cut).Revert(resumed);
      EXPECT_EQ(Bytes(resumed), Bytes(plan))
          << "revert: trial " << trial << ", kept " << kept << " of "
          << indices.size();
    }
  }
}

TEST(IvspResumeTest, CutAtZeroTakesAnyPlanWhole) {
  // A restored plan may list its deliveries in any order or start with an
  // unbound one.  A cut at 0 still takes every delivery and every cache,
  // and its Revert gives every byte back.
  util::Rng rng(20261020);
  std::size_t caches = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const RandomInstance inst(rng);
    const net::Router router(inst.topo);
    const CostModel cm(inst.topo, router, inst.catalog);
    const FileSchedule plan = ScheduleFileGreedy(
        0, inst.requests, workload::GroupByVideo(inst.requests).front().second,
        cm, IvspOptions{}, nullptr);
    caches += plan.residencies.size();
    // Reversed, the first delivery is the latest, after every service.
    FileSchedule reversed = plan;
    std::reverse(reversed.deliveries.begin(), reversed.deliveries.end());
    FileSchedule unbound = plan;
    unbound.deliveries.front().request_index = kNoRequest;
    for (FileSchedule* restored : {&reversed, &unbound}) {
      const std::string before = Bytes(*restored);
      PlanCut cut = CutPlan(*restored, 0, inst.requests);
      EXPECT_TRUE(restored->deliveries.empty()) << "trial " << trial;
      EXPECT_TRUE(restored->residencies.empty()) << "trial " << trial;
      EXPECT_EQ(cut.deliveries().size(), plan.deliveries.size());
      std::move(cut).Revert(*restored);
      EXPECT_EQ(Bytes(*restored), before) << "trial " << trial;
    }
  }
  EXPECT_GT(caches, 0u) << "no plan opened a cache to take";
}

}  // namespace
}  // namespace vor::core
