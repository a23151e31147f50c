// storage::Load, LoadView and LoadDelta unit coverage: a delta-maintained
// aggregate must match a fresh build piece for piece (in the same
// canonical order — SORP's byte-identity guarantee rests on it),
// subtractive views (whose sweeps are derived from the aggregate's, not
// rebuilt) must match a fresh build without the excluded file piece for
// piece and query for query, a dry run's private delta must match a fresh
// build with the run's streams in the file's slot, and generation
// counters must advance exactly for the keys a commit changes.  The
// suites keep the names they had when space and streams were two types.
#include "storage/load.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/ivsp.hpp"
#include "core/overflow.hpp"
#include "core/rejective_greedy.hpp"
#include "net/routing.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"
#include "workload/scenario.hpp"

namespace vor::storage {
namespace {

using core::CostModel;
using core::IvspOptions;
using core::IvspSolve;
using core::Schedule;

void ExpectSamePieces(const util::PiecewiseLinear& got,
                      const util::PiecewiseLinear& want, std::size_t key) {
  ASSERT_EQ(got.pieces().size(), want.pieces().size()) << "key " << key;
  for (std::size_t i = 0; i < got.pieces().size(); ++i) {
    const util::LinearPiece& g = got.pieces()[i];
    const util::LinearPiece& w = want.pieces()[i];
    EXPECT_EQ(g.tag, w.tag) << "key " << key << " piece " << i;
    EXPECT_EQ(g.t0.value(), w.t0.value()) << "key " << key << " piece " << i;
    EXPECT_EQ(g.t1.value(), w.t1.value()) << "key " << key << " piece " << i;
    EXPECT_EQ(g.t2.value(), w.t2.value()) << "key " << key << " piece " << i;
    EXPECT_EQ(g.height, w.height) << "key " << key << " piece " << i;
  }
}

/// Same keys, and the same pieces at every key.
void ExpectSameLoad(const Load& got, const Load& want) {
  ASSERT_EQ(got.keys().size(), want.keys().size());
  for (std::size_t k = 0; k < want.keys().size(); ++k) {
    EXPECT_EQ(got.keys()[k].kind, want.keys()[k].kind) << "key " << k;
    EXPECT_EQ(got.keys()[k].node, want.keys()[k].node) << "key " << k;
    EXPECT_EQ(got.keys()[k].peer, want.keys()[k].peer) << "key " << k;
    ExpectSamePieces(got.timeline(k), want.timeline(k), k);
  }
}

void ExpectSameRegions(const std::vector<util::ExcessRegion>& got,
                       const std::vector<util::ExcessRegion>& want,
                       std::size_t key, double threshold) {
  ASSERT_EQ(got.size(), want.size()) << "key " << key << " at " << threshold;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].window.start.value(), want[i].window.start.value())
        << "key " << key << " region " << i;
    EXPECT_EQ(got[i].window.end.value(), want[i].window.end.value())
        << "key " << key << " region " << i;
    EXPECT_EQ(got[i].peak, want[i].peak) << "key " << key << " region " << i;
    EXPECT_EQ(got[i].contributors, want[i].contributors)
        << "key " << key << " region " << i;
  }
}

/// Every query a SORP dry run or overflow scan makes must answer bit for
/// bit like the reference timeline.  `probes` are candidate pieces; each
/// is tried at the key's capacity and exactly at its critical threshold
/// (the reference's maximum over the support plus its height), where a
/// one-ulp difference in the sweep would flip the answer, and one ulp
/// below it.
void ExpectSameAnswers(const util::PiecewiseLinear& got,
                       const util::PiecewiseLinear& want,
                       const std::vector<util::LinearPiece>& probes,
                       double capacity, std::size_t key) {
  EXPECT_EQ(got.Max(), want.Max()) << "key " << key;
  const double peak = want.Max();
  for (const double threshold :
       {capacity, 0.0, 0.25 * peak, 0.5 * peak, 0.9 * peak, peak}) {
    ExpectSameRegions(got.RegionsAbove(threshold), want.RegionsAbove(threshold),
                      key, threshold);
  }
  for (const util::LinearPiece& probe : probes) {
    const util::Interval support = probe.Support();
    EXPECT_EQ(got.MaxOver(support), want.MaxOver(support)) << "key " << key;
    const double critical = want.MaxOver(support) + probe.height;
    for (const double threshold :
         {capacity, critical, std::nextafter(critical, 0.0)}) {
      EXPECT_EQ(got.FitsUnder(probe, threshold),
                want.FitsUnder(probe, threshold))
          << "key " << key << " threshold " << threshold;
    }
  }
}

/// A spread of a timeline's own pieces, as probes.
void AddSpreadProbes(const util::PiecewiseLinear& timeline,
                     std::vector<util::LinearPiece>& probes) {
  const std::vector<util::LinearPiece>& pieces = timeline.pieces();
  for (std::size_t i = 0; i < pieces.size(); i += 1 + pieces.size() / 8) {
    probes.push_back(pieces[i]);
  }
}

/// Every file of `schedule` but `file`, ascending.
std::vector<std::size_t> AllBut(const Schedule& schedule, std::size_t file) {
  std::vector<std::size_t> files;
  for (std::size_t f = 0; f < schedule.files.size(); ++f) {
    if (f != file) files.push_back(f);
  }
  return files;
}

/// A phase-1 schedule under pressure: tight capacity so files share nodes
/// and overflows exist (gives RescheduleVictim something real to change).
/// A positive `cap_streams` caps every link at that many typical-title
/// streams, so the load holds link keys too.
struct TightEnv {
  explicit TightEnv(double cap_streams = 0.0) {
    workload::ScenarioParams params;
    params.is_capacity = util::GB(5);
    params.nrate_per_gb = 1000;
    params.srate_per_gb_hour = 3;
    scenario = workload::MakeScenario(params);
    // A typical title streams size/playback ~ 0.58 MB/s.
    scenario.topology.SetUniformBandwidthCap(
        util::BytesPerSecond{cap_streams * 3.3e9 / (95.0 * 60.0)});
    router.emplace(scenario.topology);
    cm.emplace(scenario.topology, *router, scenario.catalog);
    schedule = IvspSolve(scenario.requests, *cm, IvspOptions{});
  }
  workload::Scenario scenario;
  std::optional<net::Router> router;
  std::optional<CostModel> cm;
  Schedule schedule;
};

/// First file with a residency.
std::size_t CachingFile(const Schedule& schedule) {
  for (std::size_t f = 0; f < schedule.files.size(); ++f) {
    if (!schedule.files[f].residencies.empty()) return f;
  }
  return schedule.files.size();
}

TEST(UsageTrackerTest, FreshTrackerMatchesBuildUsage) {
  // A fresh build against pieces gathered independently, key by key:
  // residencies in (file, residency) order, streams in (file, delivery)
  // order.
  const TightEnv env(/*cap_streams=*/4.0);
  const Load load(env.schedule, *env.cm);
  const net::Topology& topo = env.scenario.topology;
  EXPECT_EQ(load.keys().size(),
            topo.StorageNodes().size() + topo.links().size());
  for (std::size_t k = 0; k < load.keys().size(); ++k) {
    const LoadKey& key = load.keys()[k];
    EXPECT_EQ(key.cap, key.kind == LoadKey::Kind::kSpace
                           ? topo.node(key.node).capacity.value()
                           : topo.links()[0].bandwidth_cap.value());
    util::PiecewiseLinear want;
    for (std::size_t f = 0; f < env.schedule.files.size(); ++f) {
      const core::FileSchedule& file = env.schedule.files[f];
      if (key.kind == LoadKey::Kind::kSpace) {
        for (std::size_t r = 0; r < file.residencies.size(); ++r) {
          if (file.residencies[r].location != key.node) continue;
          want.Add(env.cm->OccupancyPiece(file.residencies[r], file.video,
                                          core::ResidencyRef{f, r}.Pack()));
        }
        continue;
      }
      for (const core::Delivery& d : file.deliveries) {
        for (std::size_t i = 0; i + 1 < d.route.size(); ++i) {
          if (std::min(d.route[i], d.route[i + 1]) != key.node ||
              std::max(d.route[i], d.route[i + 1]) != key.peer) {
            continue;
          }
          const media::Video& v = env.scenario.catalog.video(file.video);
          want.Add(util::LinearPiece{d.start, d.start + v.playback,
                                     d.start + v.playback,
                                     v.bandwidth.value(),
                                     core::ResidencyRef{f, 0}.Pack()});
        }
      }
    }
    ExpectSamePieces(load.timeline(k), want, k);
  }
  // Keys come space first, by node, then links by endpoint pair.
  for (std::size_t k = 1; k < load.keys().size(); ++k) {
    const LoadKey& a = load.keys()[k - 1];
    const LoadKey& b = load.keys()[k];
    EXPECT_TRUE(a.kind < b.kind ||
                (a.kind == b.kind && std::pair{a.node, a.peer} <
                                         std::pair{b.node, b.peer}))
        << "key " << k;
  }
}

TEST(UsageTrackerTest, SubtractiveViewMatchesBuildUsageExcludingFile) {
  for (const double cap_streams : {0.0, 4.0}) {
    SCOPED_TRACE("cap_streams=" + std::to_string(cap_streams));
    const TightEnv env(cap_streams);
    const Load load(env.schedule, *env.cm);
    for (std::size_t f = 0; f < env.schedule.files.size(); ++f) {
      if (env.schedule.files[f].residencies.empty()) continue;
      const Load reference(env.schedule, *env.cm, AllBut(env.schedule, f));
      const LoadView view = load.Excluding(f);
      for (std::size_t k = 0; k < load.keys().size(); ++k) {
        const util::PiecewiseLinear& want = reference.timeline(k);
        ExpectSamePieces(view.Find(k), want, k);
        // Probe with the file's own residencies here (the shape its
        // reschedule tries) and with a spread of the surviving pieces.
        std::vector<util::LinearPiece> probes;
        if (load.keys()[k].kind == LoadKey::Kind::kSpace) {
          for (const core::Residency& c : env.schedule.files[f].residencies) {
            if (c.location == load.keys()[k].node) {
              probes.push_back(env.cm->OccupancyPiece(
                  c, env.schedule.files[f].video, 0));
            }
          }
        }
        AddSpreadProbes(want, probes);
        ExpectSameAnswers(view.Find(k), want, probes, load.keys()[k].cap, k);
      }
    }
  }
}

TEST(UsageTrackerTest, ApplyCommitMatchesRebuildAfterRealReschedules) {
  for (const double cap_streams : {0.0, 4.0}) {
    SCOPED_TRACE("cap_streams=" + std::to_string(cap_streams));
    TightEnv env(cap_streams);
    Load load(env.schedule, *env.cm);

    // Commit several genuine rejective reschedules (the SORP commit
    // shape) and re-verify the load against a fresh build each time.
    for (int iteration = 0; iteration < 3; ++iteration) {
      const auto overflows = core::DetectOverflowsIn(load);
      if (overflows.empty()) break;
      const std::size_t victim = overflows[0].contributors[0].file_index;
      core::RescheduleResult attempt = core::RescheduleVictim(
          env.schedule, victim, env.scenario.requests, *env.cm,
          IvspOptions{}, {{overflows[0].node, overflows[0].window}},
          load.Excluding(victim));
      env.schedule.files[victim] = std::move(attempt.schedule);
      load.ApplyCommit(victim, env.schedule.files[victim]);
      ExpectSameLoad(load, Load(env.schedule, *env.cm));
    }
  }
}

TEST(UsageTrackerTest, ApplyCommitHandlesEmptiedAndNewNodes) {
  TightEnv env;
  Load load(env.schedule, *env.cm);

  // Move all of a file's residencies to a node the file does not use
  // (synthetic but legal commit).
  const std::size_t file = CachingFile(env.schedule);
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
  load.ApplyCommit(file, env.schedule.files[file]);
  ExpectSameLoad(load, Load(env.schedule, *env.cm));

  // Dropping the file's residencies entirely must empty its keys just as
  // a fresh build never fills them.
  env.schedule.files[file].residencies.clear();
  load.ApplyCommit(file, env.schedule.files[file]);
  ExpectSameLoad(load, Load(env.schedule, *env.cm));
}

TEST(UsageTrackerTest, GenerationsAdvanceExactlyForTouchedNodes) {
  TightEnv env;
  Load load(env.schedule, *env.cm);
  for (std::size_t k = 0; k < load.keys().size(); ++k) {
    EXPECT_EQ(load.Generation(k), 0u);
  }

  const std::size_t file = CachingFile(env.schedule);
  ASSERT_LT(file, env.schedule.files.size());
  std::vector<net::NodeId> old_nodes;
  for (const core::Residency& c : env.schedule.files[file].residencies) {
    old_nodes.push_back(c.location);
  }

  env.schedule.files[file].residencies.clear();
  load.ApplyCommit(file, env.schedule.files[file]);

  for (std::size_t k = 0; k < load.keys().size(); ++k) {
    const net::NodeId n = load.keys()[k].node;
    const bool touched =
        std::find(old_nodes.begin(), old_nodes.end(), n) != old_nodes.end();
    EXPECT_EQ(load.Generation(k), touched ? 1u : 0u) << "node " << n;
  }
}

TEST(UsageTrackerTest, IdenticalCommitDoesNotAdvanceGenerations) {
  for (const double cap_streams : {0.0, 4.0}) {
    SCOPED_TRACE("cap_streams=" + std::to_string(cap_streams));
    TightEnv env(cap_streams);
    Load load(env.schedule, *env.cm);
    const std::size_t file = CachingFile(env.schedule);
    ASSERT_LT(file, env.schedule.files.size());

    // Re-committing the file's current plan leaves every key's pieces
    // unchanged, so no generation may move: cached overlays of other
    // files at those keys must stay valid.
    load.ApplyCommit(file, env.schedule.files[file]);
    for (std::size_t k = 0; k < load.keys().size(); ++k) {
      EXPECT_EQ(load.Generation(k), 0u) << "key " << k;
    }
    ExpectSameLoad(load, Load(env.schedule, *env.cm));
  }
}

TEST(UsageTrackerTest, OverlayIsCachedUntilAHostNodeChanges) {
  TightEnv env;
  Load load(env.schedule, *env.cm);
  const std::size_t file = CachingFile(env.schedule);
  ASSERT_LT(file, env.schedule.files.size());
  const std::size_t host =
      load.SpaceKey(env.schedule.files[file].residencies[0].location);
  ASSERT_NE(host, Load::kNoKey);

  // Repeat views of the same file alias one cached overlay: the timeline
  // objects compare pointer-equal, so the filled analysis is shared too.
  const LoadView first = load.Excluding(file);
  const LoadView second = load.Excluding(file);
  const util::PiecewiseLinear* a = &first.Find(host);
  EXPECT_NE(a, &load.timeline(host));
  EXPECT_EQ(a, &second.Find(host));

  // An identical re-commit bumps no generation, so the cache survives...
  load.ApplyCommit(file, env.schedule.files[file]);
  EXPECT_EQ(&load.Excluding(file).Find(host), a);

  // ...but dropping the file's residencies advances its hosts.  The
  // emptied file has no pieces, so its view reads the aggregate itself,
  // which must match a fresh build without the file.
  env.schedule.files[file] = core::FileSchedule{};
  load.ApplyCommit(file, env.schedule.files[file]);
  const LoadView after = load.Excluding(file);
  EXPECT_EQ(&after.Find(host), &load.timeline(host));
  const Load reference(env.schedule, *env.cm, AllBut(env.schedule, file));
  ExpectSamePieces(after.Find(host), reference.timeline(host), host);
}

TEST(UsageViewTest, DefaultViewFindsNothing) {
  // The capacity-unaware view: every space key reads as empty, so a
  // residency meets only the static height check; stream keys still read
  // the other files' streams.
  const TightEnv env(/*cap_streams=*/4.0);
  const Load load(env.schedule, *env.cm);
  const std::size_t file = CachingFile(env.schedule);
  const LoadView view = load.Excluding(file, /*space=*/false);
  const LoadView full = load.Excluding(file);
  bool saw_streams = false;
  for (std::size_t k = 0; k < load.keys().size(); ++k) {
    if (load.keys()[k].kind == LoadKey::Kind::kSpace) {
      EXPECT_TRUE(view.Find(k).empty()) << "key " << k;
    } else {
      EXPECT_EQ(&view.Find(k), &full.Find(k)) << "key " << k;
      saw_streams |= !view.Find(k).empty();
    }
  }
  EXPECT_TRUE(saw_streams);
}

TEST(UsageViewTest, PassthroughViewReadsBaseMap) {
  // A view excluding a file with no pieces overlays nothing.
  const TightEnv env;
  const Load load(env.schedule, *env.cm);
  const LoadView view = load.Excluding(env.schedule.files.size());
  for (std::size_t k = 0; k < load.keys().size(); ++k) {
    EXPECT_EQ(&view.Find(k), &load.timeline(k));
  }
  EXPECT_EQ(load.SpaceKey(env.scenario.topology.warehouse()), Load::kNoKey);
  EXPECT_FALSE(load.holds_streams());
}

/// A SORP dry run's view of the load, pinned against fresh builds on a
/// capped phase-1 schedule (every link at 1 or 4 typical streams).  For
/// every file f, the run reads Excluding(f) and adds f's deliveries to a
/// LoadDelta one at a time.  After each addition every key the run has
/// touched must hold exactly the pieces a fresh build of the schedule
/// with f's slot emptied and the same deliveries added holds, and answer
/// every probe the same; after the last, exactly the pieces of the full
/// aggregate.  The files run concurrently on a 4-thread pool, so the
/// runs share one Load's overlay cache.
class SorpDryRunLoadTest : public ::testing::TestWithParam<double> {};

TEST_P(SorpDryRunLoadTest, DeltaMatchesFreshBuild) {
  const TightEnv env(GetParam());
  const Schedule& schedule = env.schedule;
  const Load load(schedule, *env.cm);
  ASSERT_TRUE(load.holds_streams());

  std::atomic<std::size_t> compared{0};
  util::ThreadPool pool(4);
  pool.ParallelFor(schedule.files.size(), [&](std::size_t f) {
    const core::FileSchedule& file = schedule.files[f];
    const std::uint64_t tag = core::ResidencyRef{f, 0}.Pack();
    const Load without(schedule, *env.cm, AllBut(schedule, f));
    const LoadView view = load.Excluding(f);
    LoadDelta run(view);
    std::vector<util::LinearPiece> own;  // the run's streams so far
    for (const core::Delivery& d : file.deliveries) {
      run.AddStream(d, file.video);
      const media::Video& v = env.scenario.catalog.video(file.video);
      own.push_back(util::LinearPiece{d.start, d.start + v.playback,
                                      d.start + v.playback,
                                      v.bandwidth.value(), tag});
      for (const std::size_t k : run.Touched()) {
        // The fresh timeline: the other files' pieces in order, with the
        // run's streams on this key at the file's position.
        util::PiecewiseLinear want;
        const auto& others = without.timeline(k).pieces();
        auto it = others.begin();
        for (; it != others.end() && it->tag < tag; ++it) want.Add(*it);
        std::vector<util::LinearPiece> probes;
        for (std::size_t i = 0; i < own.size(); ++i) {
          bool here = false;
          load.ForEachStreamKey(file.deliveries[i].route,
                                [&](std::size_t key) { here |= key == k; });
          if (here) {
            want.Add(own[i]);
            probes.push_back(own[i]);
          }
        }
        for (; it != others.end(); ++it) want.Add(*it);
        ExpectSamePieces(run.Find(k), want, k);
        AddSpreadProbes(want, probes);
        ExpectSameAnswers(run.Find(k), want, probes, load.keys()[k].cap, k);
        ++compared;
      }
    }
    for (const std::size_t k : run.Touched()) {
      ExpectSamePieces(run.Find(k), load.timeline(k), k);
    }
  });
  EXPECT_GT(compared.load(), schedule.files.size());
}

INSTANTIATE_TEST_SUITE_P(Caps, SorpDryRunLoadTest, ::testing::Values(1.0, 4.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "cap" + std::to_string(
                                              static_cast<int>(info.param));
                         });

}  // namespace
}  // namespace vor::storage
