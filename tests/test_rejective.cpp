#include "core/rejective_greedy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/ivsp.hpp"
#include "core/overflow.hpp"
#include "core/sorp.hpp"
#include "io/binary.hpp"
#include "sim/validator.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace vor::core {
namespace {

using testing::OneVideoCatalog;
using testing::SmallTopology;

struct Env {
  Env() : topo(SmallTopology(3)), catalog(OneVideoCatalog()), router(topo),
          cm(topo, router, catalog) {}
  net::Topology topo;
  media::Catalog catalog;
  net::Router router;
  CostModel cm;
};

std::vector<workload::Request> CloseRequests() {
  return {
      {0, 0, util::Hours(1.0), 3},
      {1, 0, util::Hours(1.5), 3},
      {2, 0, util::Hours(2.0), 3},
  };
}

TEST(RejectiveTest, FileRequestIndicesRecoversChronology) {
  Env env;
  const auto requests = CloseRequests();
  const Schedule s = IvspSolve(requests, env.cm, IvspOptions{});
  ASSERT_EQ(s.files.size(), 1u);
  EXPECT_EQ(FileRequestIndices(s.files[0].deliveries, requests),
            (std::vector<std::size_t>{0, 1, 2}));
}

TEST(RejectiveTest, RescheduleAvoidsForbiddenWindow) {
  Env env;
  const auto requests = CloseRequests();
  Schedule s = IvspSolve(requests, env.cm, IvspOptions{});
  ASSERT_EQ(s.files[0].residencies.size(), 1u);
  const Residency original = s.files[0].residencies[0];

  const storage::Load load(s, env.cm);
  const util::Interval window{original.t_start,
                              original.t_last + util::Hours(1)};
  const RescheduleResult result = RescheduleVictim(
      s, 0, requests, env.cm, IvspOptions{}, {{original.location, window}},
      load.Excluding(0));

  for (const Residency& c : result.schedule.residencies) {
    if (c.location == original.location) {
      const util::Interval support{c.t_start, c.t_last + util::Hours(1)};
      EXPECT_FALSE(util::Overlaps(support, window));
    }
  }
  // Every request still served.
  EXPECT_EQ(result.schedule.deliveries.size(), requests.size());
  // Rescheduling under constraints can only cost more (or equal): the
  // greedy search space shrank.
  EXPECT_GE(result.Overhead().value(), -1e-9);
}

TEST(RejectiveTest, RescheduleRespectsOtherFilesCapacity) {
  Env env;
  env.topo.SetUniformStorageCapacity(util::Bytes{1.2e9});
  const auto requests = CloseRequests();
  Schedule s = IvspSolve(requests, env.cm, IvspOptions{});

  // Another file already reserves most of node 3: a full 1 GB copy from
  // 0 h to 10 h, draining to 11 h.
  core::Residency reserved;
  reserved.location = 3;
  reserved.t_start = util::Hours(0);
  reserved.t_last = util::Hours(10);
  s.files.push_back(FileSchedule{0, {}, {reserved}});
  const storage::Load load(s, env.cm);
  const RescheduleResult result = RescheduleVictim(
      s, 0, requests, env.cm, IvspOptions{}, {}, load.Excluding(0));
  // Remaining headroom at node 3 is 0.2e9 < any real residency height, so
  // the victim may not cache there.
  for (const Residency& c : result.schedule.residencies) {
    if (c.location == 3u) {
      EXPECT_LE(env.cm.OccupancyPiece(c, result.schedule.video, 0).height,
                0.2e9 + 1.0);
    }
  }
}

TEST(RejectiveTest, FullyForbiddenFallsBackToDirect) {
  Env env;
  const auto requests = CloseRequests();
  Schedule s = IvspSolve(requests, env.cm, IvspOptions{});

  // Forbid caching everywhere forever.
  std::vector<std::pair<net::NodeId, util::Interval>> forbidden;
  for (const net::NodeId n : env.topo.StorageNodes()) {
    forbidden.emplace_back(n,
                           util::Interval{util::Hours(0), util::Hours(100)});
  }
  const storage::Load load(s, env.cm);
  const RescheduleResult result = RescheduleVictim(
      s, 0, requests, env.cm, IvspOptions{}, std::move(forbidden),
      load.Excluding(0));
  EXPECT_TRUE(result.schedule.residencies.empty());
  for (const Delivery& d : result.schedule.deliveries) {
    EXPECT_EQ(d.origin(), env.topo.warehouse());
  }
  const auto report = [&] {
    Schedule wrapped;
    wrapped.files.push_back(result.schedule);
    sim::ValidationOptions options;
    options.check_capacity = false;
    return sim::ValidateSchedule(wrapped, requests, env.cm, options);
  }();
  EXPECT_TRUE(report.ok());
}

TEST(RejectiveTest, RouteHookVetoesCandidates) {
  Env env;
  const auto requests = CloseRequests();
  Schedule s = IvspSolve(requests, env.cm, IvspOptions{});
  // Every link capped below one stream: only local (single-node)
  // deliveries fit, which is impossible for the first request -> fallback
  // direct.  The other files' load is that of the capped topology.
  net::Topology capped = env.topo;
  capped.SetUniformBandwidthCap(util::GB(0.5) / util::Hours(1.0));
  const net::Router capped_router(capped);
  const CostModel capped_cm(capped, capped_router, env.catalog);
  const storage::Load load(s, capped_cm);
  const RescheduleResult result = RescheduleVictim(
      s, 0, requests, env.cm, IvspOptions{}, {}, load.Excluding(0));
  EXPECT_GT(result.greedy.rejected_route, 0u);
  EXPECT_GE(result.greedy.forced_direct, 1u);
  // The fallback serves everyone even against the caps.
  EXPECT_EQ(result.schedule.deliveries.size(), requests.size());
}

std::string PlanBytes(const FileSchedule& plan) {
  Schedule wrapped;
  wrapped.files.push_back(plan);
  return io::ScheduleToBinary(wrapped);
}

// A dry run given an overhead allowance either completes with exactly the
// plan and cost of its unbounded twin, or is abandoned, and then its twin's
// overhead exceeds the allowance.  And it is abandoned whenever the twin's
// overhead clearly exceeds the allowance: the ceiling prunes.
class RescheduleCeilingProperty : public ::testing::TestWithParam<int> {};

TEST_P(RescheduleCeilingProperty, BoundedRunIsItsTwinOrOverTheLimit) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9E3779B97F4A7C15ULL);
  workload::ScenarioParams params;
  params.nrate_per_gb = rng.Uniform(200.0, 1200.0);
  params.srate_per_gb_hour = rng.Uniform(0.5, 10.0);
  params.is_capacity = util::GB(rng.Uniform(2.5, 5.0));
  params.storage_count = 5 + rng.NextBounded(6);
  params.users_per_neighborhood = 8 + rng.NextBounded(8);
  params.catalog_size = 40 + rng.NextBounded(60);
  params.seed = rng.NextU64();
  const workload::Scenario scenario = workload::MakeScenario(params);
  const net::Router router(scenario.topology);
  const CostModel cm(scenario.topology, router, scenario.catalog);
  const Schedule schedule = IvspSolve(scenario.requests, cm, IvspOptions{});
  const storage::Load load(schedule, cm);
  const std::vector<SorpCandidate> candidates =
      CollectSorpCandidates(schedule, DetectOverflowsIn(load), cm);
  ASSERT_FALSE(candidates.empty()) << "the instance must be under pressure";

  std::size_t abandoned = 0;
  std::size_t completed = 0;
  for (std::size_t n = 0; n < std::min<std::size_t>(candidates.size(), 24);
       ++n) {
    const SorpCandidate& c = candidates[n];
    const storage::LoadView others = load.Excluding(c.file_index);
    const VictimInputs inputs =
        VictimInputsOf(schedule.files[c.file_index], scenario.requests, cm);
    const RescheduleResult twin =
        RescheduleVictim(schedule, c.file_index, scenario.requests, cm,
                         IvspOptions{}, {{c.node, c.window}}, others);
    ASSERT_FALSE(twin.abandoned);
    const double overhead = twin.Overhead().value();
    const double scale = inputs.cost.value() + std::abs(overhead);
    for (const double limit :
         {-1.0, 0.0, overhead / 2.0, overhead - 1e-6 * scale,
          std::nextafter(overhead, -1e300), overhead,
          overhead + 1e-6 * scale, 2.0 * std::abs(overhead) + 1.0}) {
      SCOPED_TRACE("candidate " + std::to_string(n) + ", limit " +
                   std::to_string(limit) + ", overhead " +
                   std::to_string(overhead));
      const RescheduleResult bounded =
          RescheduleVictim(schedule, c.file_index, scenario.requests, cm,
                           IvspOptions{}, {{c.node, c.window}}, others, limit,
                           &inputs);
      if (bounded.abandoned) {
        ++abandoned;
        EXPECT_GT(overhead, limit);
      } else {
        ++completed;
        EXPECT_EQ(PlanBytes(bounded.schedule), PlanBytes(twin.schedule));
        EXPECT_EQ(bounded.new_cost.value(), twin.new_cost.value());
        EXPECT_EQ(bounded.old_cost.value(), twin.old_cost.value());
      }
      if (limit < overhead - 1e-7 * scale) {
        EXPECT_TRUE(bounded.abandoned) << "the ceiling did not prune";
      }
    }
  }
  EXPECT_GT(abandoned, 0u);
  EXPECT_GT(completed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RescheduleCeilingProperty,
                         ::testing::Range(1, 7));

}  // namespace
}  // namespace vor::core
