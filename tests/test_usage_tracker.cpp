// storage::UsageTracker / storage::UsageView unit coverage: the delta-
// maintained aggregate must match a fresh BuildUsage piece-for-piece (in
// the same canonical ascending-tag order — SORP's byte-identity guarantee
// rests on it), subtractive views (whose sweeps are derived from the
// aggregate's, not rebuilt) must match BuildUsageExcludingFile piece for
// piece and query for query, and generation counters must advance exactly
// for the nodes a commit touches.
#include "storage/usage_timeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "core/ivsp.hpp"
#include "core/overflow.hpp"
#include "core/rejective_greedy.hpp"
#include "net/routing.hpp"
#include "workload/scenario.hpp"

namespace vor::storage {
namespace {

using core::CostModel;
using core::IvspOptions;
using core::IvspSolve;
using core::Schedule;

void ExpectSamePieces(const util::PiecewiseLinear& got,
                      const util::PiecewiseLinear& want,
                      net::NodeId node) {
  ASSERT_EQ(got.pieces().size(), want.pieces().size()) << "node " << node;
  for (std::size_t i = 0; i < got.pieces().size(); ++i) {
    const util::LinearPiece& g = got.pieces()[i];
    const util::LinearPiece& w = want.pieces()[i];
    EXPECT_EQ(g.tag, w.tag) << "node " << node << " piece " << i;
    EXPECT_EQ(g.t0.value(), w.t0.value()) << "node " << node << " piece " << i;
    EXPECT_EQ(g.t1.value(), w.t1.value()) << "node " << node << " piece " << i;
    EXPECT_EQ(g.t2.value(), w.t2.value()) << "node " << node << " piece " << i;
    EXPECT_EQ(g.height, w.height) << "node " << node << " piece " << i;
  }
}

void ExpectSameUsage(const UsageMap& got, const UsageMap& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [node, timeline] : want) {
    const auto it = got.find(node);
    ASSERT_NE(it, got.end()) << "node " << node << " missing";
    ExpectSamePieces(it->second, timeline, node);
  }
}

void ExpectSameRegions(const std::vector<util::ExcessRegion>& got,
                       const std::vector<util::ExcessRegion>& want,
                       net::NodeId node, double threshold) {
  ASSERT_EQ(got.size(), want.size()) << "node " << node << " at " << threshold;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].window.start.value(), want[i].window.start.value())
        << "node " << node << " region " << i;
    EXPECT_EQ(got[i].window.end.value(), want[i].window.end.value())
        << "node " << node << " region " << i;
    EXPECT_EQ(got[i].peak, want[i].peak) << "node " << node << " region " << i;
    EXPECT_EQ(got[i].contributors, want[i].contributors)
        << "node " << node << " region " << i;
  }
}

/// Every query a SORP dry run or overflow scan makes must answer bit for
/// bit like the reference timeline.  `probes` are candidate residencies;
/// each is tried at the node's capacity and exactly at its critical
/// threshold (the reference's maximum over the support plus its height),
/// where a one-ulp difference in the sweep would flip the answer.
void ExpectSameAnswers(const util::PiecewiseLinear& got,
                       const util::PiecewiseLinear& want,
                       const std::vector<util::LinearPiece>& probes,
                       double capacity, net::NodeId node) {
  EXPECT_EQ(got.Max(), want.Max()) << "node " << node;
  const double peak = want.Max();
  for (const double threshold :
       {capacity, 0.0, 0.25 * peak, 0.5 * peak, 0.9 * peak, peak}) {
    ExpectSameRegions(got.RegionsAbove(threshold), want.RegionsAbove(threshold),
                      node, threshold);
  }
  for (const util::LinearPiece& probe : probes) {
    const util::Interval support = probe.Support();
    EXPECT_EQ(got.MaxOver(support), want.MaxOver(support)) << "node " << node;
    const double critical = want.MaxOver(support) + probe.height;
    for (const double threshold :
         {capacity, critical, std::nextafter(critical, 0.0)}) {
      EXPECT_EQ(got.FitsUnder(probe, threshold),
                want.FitsUnder(probe, threshold))
          << "node " << node << " threshold " << threshold;
    }
  }
}

/// A phase-1 schedule under pressure: tight capacity so files share nodes
/// and overflows exist (gives RescheduleVictim something real to change).
struct TightEnv {
  TightEnv() {
    workload::ScenarioParams params;
    params.is_capacity = util::GB(5);
    params.nrate_per_gb = 1000;
    params.srate_per_gb_hour = 3;
    scenario = workload::MakeScenario(params);
    router.emplace(scenario.topology);
    cm.emplace(scenario.topology, *router, scenario.catalog);
    schedule = IvspSolve(scenario.requests, *cm, IvspOptions{});
  }
  workload::Scenario scenario;
  std::optional<net::Router> router;
  std::optional<CostModel> cm;
  Schedule schedule;
};

TEST(UsageTrackerTest, FreshTrackerMatchesBuildUsage) {
  const TightEnv env;
  const UsageTracker tracker(env.schedule, *env.cm);
  ExpectSameUsage(tracker.usage(), BuildUsage(env.schedule, *env.cm));
}

TEST(UsageTrackerTest, SubtractiveViewMatchesBuildUsageExcludingFile) {
  const TightEnv env;
  const UsageTracker tracker(env.schedule, *env.cm);
  for (std::size_t f = 0; f < env.schedule.files.size(); ++f) {
    if (env.schedule.files[f].residencies.empty()) continue;
    const UsageMap reference = BuildUsageExcludingFile(env.schedule, *env.cm, f);
    const UsageView view = tracker.ExcludingFile(f);
    for (net::NodeId node = 0; node < env.scenario.topology.node_count();
         ++node) {
      const util::PiecewiseLinear* got = view.Find(node);
      const auto it = reference.find(node);
      if (it == reference.end()) {
        // The reference drops nodes with no pieces; the view may hand back
        // an emptied overlay copy instead — behaviourally equivalent.
        EXPECT_TRUE(got == nullptr || got->empty())
            << "file " << f << " node " << node;
        continue;
      }
      ASSERT_NE(got, nullptr) << "file " << f << " node " << node;
      ExpectSamePieces(*got, it->second, node);
      // Probe with the file's own residencies here (the shape its
      // reschedule tries) and with a spread of the surviving pieces.
      std::vector<util::LinearPiece> probes;
      for (const core::Residency& c : env.schedule.files[f].residencies) {
        if (c.location == node) probes.push_back(env.cm->OccupancyPiece(c, 0));
      }
      const std::vector<util::LinearPiece>& rest = it->second.pieces();
      for (std::size_t i = 0; i < rest.size(); i += 1 + rest.size() / 8) {
        probes.push_back(rest[i]);
      }
      ExpectSameAnswers(*got, it->second, probes,
                        env.scenario.topology.node(node).capacity.value(),
                        node);
    }
  }
}

TEST(UsageTrackerTest, ApplyCommitMatchesRebuildAfterRealReschedules) {
  TightEnv env;
  UsageTracker tracker(env.schedule, *env.cm);

  // Commit several genuine rejective reschedules (the SORP commit shape)
  // and re-verify the tracker against a from-scratch build each time.
  for (int iteration = 0; iteration < 3; ++iteration) {
    const auto overflows = core::DetectOverflows(env.schedule, *env.cm);
    if (overflows.empty()) break;
    const std::size_t victim = overflows[0].contributors[0].file_index;
    const UsageView other = tracker.ExcludingFile(victim);
    core::RescheduleResult attempt = core::RescheduleVictim(
        env.schedule, victim, env.scenario.requests, *env.cm, IvspOptions{},
        {{overflows[0].node, overflows[0].window}}, other);
    env.schedule.files[victim] = std::move(attempt.schedule);
    tracker.ApplyCommit(victim, env.schedule.files[victim]);
    ExpectSameUsage(tracker.usage(), BuildUsage(env.schedule, *env.cm));
  }
}

TEST(UsageTrackerTest, ApplyCommitHandlesEmptiedAndNewNodes) {
  TightEnv env;
  UsageTracker tracker(env.schedule, *env.cm);

  // Find a file with at least one residency and move all of them to a
  // node the file does not currently use (synthetic but legal commit).
  std::size_t file = env.schedule.files.size();
  for (std::size_t f = 0; f < env.schedule.files.size(); ++f) {
    if (!env.schedule.files[f].residencies.empty()) {
      file = f;
      break;
    }
  }
  ASSERT_LT(file, env.schedule.files.size());

  core::FileSchedule moved = env.schedule.files[file];
  const auto storage_nodes = env.scenario.topology.StorageNodes();
  for (core::Residency& c : moved.residencies) {
    for (const net::NodeId n : storage_nodes) {
      if (n != c.location) {
        c.location = n;
        break;
      }
    }
  }
  env.schedule.files[file] = moved;
  tracker.ApplyCommit(file, env.schedule.files[file]);
  ExpectSameUsage(tracker.usage(), BuildUsage(env.schedule, *env.cm));

  // Dropping the file's residencies entirely must erase emptied nodes
  // just like a fresh build would never create them.
  env.schedule.files[file].residencies.clear();
  tracker.ApplyCommit(file, env.schedule.files[file]);
  ExpectSameUsage(tracker.usage(), BuildUsage(env.schedule, *env.cm));
}

TEST(UsageTrackerTest, GenerationsAdvanceExactlyForTouchedNodes) {
  TightEnv env;
  UsageTracker tracker(env.schedule, *env.cm);
  for (net::NodeId n = 0; n < env.scenario.topology.node_count(); ++n) {
    EXPECT_EQ(tracker.NodeGeneration(n), 0u);
  }

  std::size_t file = env.schedule.files.size();
  for (std::size_t f = 0; f < env.schedule.files.size(); ++f) {
    if (!env.schedule.files[f].residencies.empty()) {
      file = f;
      break;
    }
  }
  ASSERT_LT(file, env.schedule.files.size());

  std::vector<net::NodeId> old_nodes;
  for (const core::Residency& c : env.schedule.files[file].residencies) {
    old_nodes.push_back(c.location);
  }

  env.schedule.files[file].residencies.clear();
  tracker.ApplyCommit(file, env.schedule.files[file]);

  for (net::NodeId n = 0; n < env.scenario.topology.node_count(); ++n) {
    const bool touched =
        std::find(old_nodes.begin(), old_nodes.end(), n) != old_nodes.end();
    EXPECT_EQ(tracker.NodeGeneration(n), touched ? 1u : 0u) << "node " << n;
  }
}

TEST(UsageTrackerTest, IdenticalCommitDoesNotAdvanceGenerations) {
  TightEnv env;
  UsageTracker tracker(env.schedule, *env.cm);

  std::size_t file = env.schedule.files.size();
  for (std::size_t f = 0; f < env.schedule.files.size(); ++f) {
    if (!env.schedule.files[f].residencies.empty()) {
      file = f;
      break;
    }
  }
  ASSERT_LT(file, env.schedule.files.size());

  // Re-committing the file's current schedule leaves every node's piece
  // geometry unchanged, so no generation may move — cached overlays of
  // other files hosted on those nodes must stay valid.
  tracker.ApplyCommit(file, env.schedule.files[file]);
  for (net::NodeId n = 0; n < env.scenario.topology.node_count(); ++n) {
    EXPECT_EQ(tracker.NodeGeneration(n), 0u) << "node " << n;
  }
  ExpectSameUsage(tracker.usage(), BuildUsage(env.schedule, *env.cm));
}

TEST(UsageTrackerTest, OverlayIsCachedUntilAHostNodeChanges) {
  TightEnv env;
  UsageTracker tracker(env.schedule, *env.cm);

  std::size_t file = env.schedule.files.size();
  for (std::size_t f = 0; f < env.schedule.files.size(); ++f) {
    if (!env.schedule.files[f].residencies.empty()) {
      file = f;
      break;
    }
  }
  ASSERT_LT(file, env.schedule.files.size());
  const net::NodeId host = env.schedule.files[file].residencies[0].location;

  // Repeat views of the same file alias one cached overlay: the timeline
  // objects compare pointer-equal, so the filled analysis is shared too.
  const UsageView first = tracker.ExcludingFile(file);
  const UsageView second = tracker.ExcludingFile(file);
  const util::PiecewiseLinear* a = first.Find(host);
  const util::PiecewiseLinear* b = second.Find(host);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);

  // An identical re-commit bumps no generation, so the cache survives...
  tracker.ApplyCommit(file, env.schedule.files[file]);
  EXPECT_EQ(tracker.ExcludingFile(file).Find(host), a);

  // ...but dropping the file's residencies advances its hosts and must
  // force a rebuild that reflects the new base usage.
  core::FileSchedule emptied;
  env.schedule.files[file] = emptied;
  tracker.ApplyCommit(file, emptied);
  const UsageView after = tracker.ExcludingFile(file);
  const util::PiecewiseLinear* c = after.Find(host);
  // The emptied file hosts no nodes, so the view reads the base aggregate
  // (no overlay); either way it must match a fresh exclusion build.
  const UsageMap reference = BuildUsageExcludingFile(env.schedule, *env.cm, file);
  const auto it = reference.find(host);
  if (it == reference.end()) {
    EXPECT_TRUE(c == nullptr || c->empty());
  } else {
    ASSERT_NE(c, nullptr);
    ExpectSamePieces(*c, it->second, host);
  }
}

TEST(UsageViewTest, DefaultViewFindsNothing) {
  const UsageView view;
  EXPECT_EQ(view.Find(3), nullptr);
  EXPECT_EQ(view.Find(1), nullptr);
  EXPECT_EQ(view.Find(3), nullptr);
}

TEST(UsageViewTest, PassthroughViewReadsBaseMap) {
  UsageMap base;
  base[2].Add(util::LinearPiece{util::Hours(0), util::Hours(1), util::Hours(2),
                                5.0, 7});
  const UsageView view(&base);
  ASSERT_NE(view.Find(2), nullptr);
  EXPECT_EQ(view.Find(2)->pieces().size(), 1u);
  EXPECT_EQ(view.Find(9), nullptr);
}

}  // namespace
}  // namespace vor::storage
