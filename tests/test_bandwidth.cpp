// Stream capacity: the stream keys of storage::Load, and the scheduler
// honouring the bandwidth and storage I/O caps a topology declares.
#include "storage/load.hpp"

#include <gtest/gtest.h>

#include "core/overflow.hpp"
#include "core/scheduler.hpp"
#include "io/serialize.hpp"
#include "sim/validator.hpp"
#include "test_helpers.hpp"
#include "workload/scenario.hpp"

namespace vor::storage {
namespace {

using testing::OneVideoCatalog;

/// 1 GB/h: one stream of OneVideoCatalog()'s title.
const util::BytesPerSecond kOneStream = util::GB(1.0) / util::Hours(1.0);

/// Chain topology with an explicit bandwidth cap on every link.
net::Topology CappedChain(std::size_t storages, double cap_streams) {
  net::Topology topo;
  const net::NodeId vw = topo.AddWarehouse("VW");
  net::NodeId prev = vw;
  for (std::size_t i = 0; i < storages; ++i) {
    const net::NodeId n =
        topo.AddStorage("IS" + std::to_string(i), util::GB(100),
                        util::StorageRate{1.0 / 3.6e12});
    topo.AddLink(prev, n, util::NetworkRate{10.0 / 1e9},
                 kOneStream * cap_streams);
    prev = n;
  }
  return topo;
}

/// Solves with the scheduler and measures the schedule's streams.
struct CappedSolve {
  CappedSolve(const net::Topology& topo, const media::Catalog& catalog,
              const std::vector<workload::Request>& requests)
      : scheduler(topo, catalog) {
    auto result = scheduler.Solve(requests);
    EXPECT_TRUE(result.ok());
    if (result.ok()) out = std::move(*result);
    streams = MeasureStreams(out.schedule, topo, catalog);
  }

  core::VorScheduler scheduler;
  core::SolveOutput out;
  StreamReport streams;
};

/// An environment for hand-placed streams: one cost model and an empty
/// schedule of `files` slots, whose load holds only the stream keys.
struct StreamEnv {
  StreamEnv(net::Topology topology, std::size_t files)
      : topo(std::move(topology)),
        catalog(OneVideoCatalog()),
        router(topo),
        cm(topo, router, catalog) {
    schedule.files.resize(files);
  }
  net::Topology topo;
  media::Catalog catalog;
  net::Router router;
  core::CostModel cm;
  core::Schedule schedule;
};

TEST(StreamLoadTest, TracksAndRemovesByFile) {
  StreamEnv env(CappedChain(2, 1.0), 2);
  Load load(env.schedule, env.cm, Resources::kStreams);

  core::Delivery d;
  d.route = {0, 1, 2};
  d.start = util::Hours(1);
  {
    const LoadView others = load.Excluding(0);
    LoadDelta run(others);
    EXPECT_TRUE(run.RouteFits(d.route, d.start, 0));
    run.AddStream(d, 0);
    // The run sees its own stream on the link for the playback hour.
    EXPECT_FALSE(run.RouteFits(d.route, util::Hours(1.5), 0));
    EXPECT_TRUE(run.RouteFits(d.route, util::Hours(2.5), 0));
  }
  env.schedule.files[0].deliveries.push_back(d);
  load.ApplyCommit(0, env.schedule.files[0]);
  // Committed, the stream blocks another file...
  const LoadView file1 = load.Excluding(1);
  EXPECT_FALSE(LoadDelta(file1).RouteFits(d.route, util::Hours(1.5), 0));
  // ...but not its own file's re-plan, and not once removed.
  const LoadView file0 = load.Excluding(0);
  EXPECT_TRUE(LoadDelta(file0).RouteFits(d.route, util::Hours(1.5), 0));
  load.ApplyCommit(0, core::FileSchedule{});
  const LoadView emptied = load.Excluding(1);
  EXPECT_TRUE(LoadDelta(emptied).RouteFits(d.route, util::Hours(1.5), 0));
}

TEST(StreamLoadTest, UncapacitatedLinksAlwaysPass) {
  net::Topology topo;
  const net::NodeId vw = topo.AddWarehouse("VW");
  const net::NodeId a = topo.AddStorage("A", util::GB(1), util::StorageRate{0});
  topo.AddLink(vw, a, util::NetworkRate{1e-9});  // no cap
  EXPECT_FALSE(HasStreamCaps(topo));
  StreamEnv env(topo, 1);
  const Load load(env.schedule, env.cm, Resources::kStreams);
  EXPECT_FALSE(load.holds_streams());  // nothing tracked
  const LoadView others = load.Excluding(0);
  LoadDelta run(others);
  for (int i = 0; i < 50; ++i) {
    core::Delivery d;
    d.route = {vw, a};
    d.start = util::Hours(1);
    EXPECT_TRUE(run.RouteFits(d.route, d.start, 0));
    run.AddStream(d, 0);
  }
  EXPECT_TRUE(run.Touched().empty());
}

TEST(BandwidthSchedulerTest, CapsSpreadLoadWithoutOverload) {
  // 3 users want the same title at overlapping times in the same (far)
  // neighborhood; each link only carries 2 streams.  Without caps all
  // three streams would cross VW->IS0 simultaneously.
  const net::Topology topo = CappedChain(3, 2.0);
  const media::Catalog catalog = OneVideoCatalog();
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(1.00), 3},
      {1, 0, util::Hours(1.10), 3},
      {2, 0, util::Hours(1.20), 3},
  };
  const CappedSolve solve(topo, catalog, requests);
  EXPECT_EQ(solve.streams.forced_requests, 0u);
  EXPECT_EQ(solve.streams.overloaded_links, 0u);
  EXPECT_LE(solve.streams.worst_utilization, 1.0 + 1e-9);

  const auto report = sim::ValidateSchedule(solve.out.schedule, requests,
                                            solve.scheduler.cost_model());
  EXPECT_TRUE(report.ok());
}

TEST(BandwidthSchedulerTest, ImpossibleDemandIsForcedAndReported) {
  // Cap of ~0.5 streams: even one stream overloads every link, but each
  // reservation must still be honoured.
  const net::Topology topo = CappedChain(2, 0.5);
  const media::Catalog catalog = OneVideoCatalog();
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(1.0), 2},
  };
  const CappedSolve solve(topo, catalog, requests);
  EXPECT_EQ(solve.out.schedule.TotalDeliveries(), 1u);
  EXPECT_EQ(solve.streams.forced_requests, 1u);
  EXPECT_GT(solve.streams.worst_utilization, 1.0);
  EXPECT_GT(solve.streams.overloaded_links, 0u);
}

TEST(BandwidthSchedulerTest, CachingRelievesSaturatedBackbone) {
  // One unit-capacity backbone link; two same-title requests staggered by
  // more than a playback so the backbone is only needed once if the title
  // is cached behind it.
  const net::Topology topo = CappedChain(2, 1.0);
  const media::Catalog catalog = OneVideoCatalog();
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(1.0), 2},
      {1, 0, util::Hours(1.5), 2},  // overlaps the first stream
  };
  const CappedSolve solve(topo, catalog, requests);
  // The second request cannot share the VW->IS0->IS1 path (saturated by
  // the first stream); a cache (anchored to the first stream) serves it
  // locally with no backbone use at all.
  EXPECT_EQ(solve.streams.forced_requests, 0u);
  EXPECT_EQ(solve.streams.overloaded_links, 0u);
  EXPECT_GE(solve.out.schedule.TotalResidencies(), 1u);
}

TEST(BandwidthSchedulerTest, StorageOverflowStillResolvedUnderCaps) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(5);
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  workload::Scenario scenario = workload::MakeScenario(params);
  // Add generous caps (so they bind only occasionally).
  scenario.topology.SetUniformBandwidthCap(util::BytesPerSecond{50e6});
  const CappedSolve solve(scenario.topology, scenario.catalog,
                          scenario.requests);
  EXPECT_TRUE(solve.out.sorp.Resolved());
  EXPECT_TRUE(core::DetectOverflows(solve.out.schedule,
                                    solve.scheduler.cost_model())
                  .empty());
}

TEST(BandwidthSchedulerTest, SorpDryRunCountsTheVictimsOwnStreams) {
  // VW -1 stream- IS0 -uncapped- IS1.  Phase 1 serves the second request
  // from a cache at IS1 (the backbone is busy with the first stream), but
  // IS1 holds only 0.1 GB, so SORP reschedules the file.  Its dry run must
  // count the first stream it re-places: sending the second request
  // direct again would put two streams on the one-stream backbone, so it
  // caches at IS0 instead.
  net::Topology topo;
  const net::NodeId vw = topo.AddWarehouse("VW");
  const util::StorageRate srate{10.0 / 3.6e12};  // $10/(GB*h)
  const net::NodeId is0 = topo.AddStorage("IS0", util::GB(100), srate);
  const net::NodeId is1 = topo.AddStorage("IS1", util::GB(0.1), srate);
  topo.AddLink(vw, is0, util::NetworkRate{1.0 / 1e9}, kOneStream);
  topo.AddLink(is0, is1, util::NetworkRate{1.0 / 1e9});
  const media::Catalog catalog = OneVideoCatalog();
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(1.0), is1},
      {1, 0, util::Hours(1.5), is1},
  };
  const CappedSolve solve(topo, catalog, requests);
  EXPECT_EQ(solve.out.sorp.victims_rescheduled, 1u);
  EXPECT_EQ(solve.streams.forced_requests, 0u);
  EXPECT_EQ(solve.streams.overloaded_links, 0u);
  ASSERT_EQ(solve.out.schedule.TotalResidencies(), 1u);
  EXPECT_EQ(solve.out.schedule.files[0].residencies[0].location, is0);
}

TEST(StorageIoCapTest, TrackerLimitsOriginServing) {
  net::Topology topo = CappedChain(2, /*cap_streams=*/100.0);
  topo.SetUniformStorageIoCap(kOneStream * 1.0);  // each IS serves 1 stream
  StreamEnv env(topo, 1);
  const Load load(env.schedule, env.cm, Resources::kStreams);
  ASSERT_NE(load.ServingKey(1), Load::kNoKey);
  EXPECT_EQ(load.ServingKey(0), Load::kNoKey);  // the warehouse

  core::Delivery replay;
  replay.route = {1, 2};  // served out of IS0's disks
  replay.start = util::Hours(1);
  const LoadView others = load.Excluding(0);
  LoadDelta run(others);
  EXPECT_TRUE(run.RouteFits(replay.route, replay.start, 0));
  run.AddStream(replay, 0);
  // Second concurrent replay from the same storage is refused...
  EXPECT_FALSE(run.RouteFits(replay.route, util::Hours(1.5), 0));
  EXPECT_LE(run.Find(load.ServingKey(1)).Max(), kOneStream.value());
  // ...but the warehouse is never I/O capped.
  EXPECT_TRUE(run.RouteFits(net::Route{0, 1, 2}, util::Hours(1.5), 0));
  // And a disjoint-in-time replay is fine.
  EXPECT_TRUE(run.RouteFits(replay.route, util::Hours(3.0), 0));
}

TEST(StorageIoCapTest, SchedulerSpreadsReplaysAcrossStorages) {
  // Three same-title overlapping requests in a far neighborhood; each
  // storage can serve only one stream at a time, links are generous.
  net::Topology topo = CappedChain(3, /*cap_streams=*/100.0);
  topo.SetUniformStorageIoCap(kOneStream * 1.0);
  const media::Catalog catalog = OneVideoCatalog();
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(1.00), 3},
      {1, 0, util::Hours(1.10), 3},
      {2, 0, util::Hours(1.20), 3},
  };
  const CappedSolve solve(topo, catalog, requests);
  EXPECT_EQ(solve.streams.forced_requests, 0u);
  EXPECT_EQ(solve.streams.overloaded_nodes, 0u);
  EXPECT_LE(solve.streams.worst_utilization, 1.0 + 1e-9);
  // Replays must come from at least two distinct origins (or the VW).
  const auto report = sim::ValidateSchedule(solve.out.schedule, requests,
                                            solve.scheduler.cost_model());
  EXPECT_TRUE(report.ok());
}

TEST(StorageIoCapTest, IoCapSurvivesSerialization) {
  net::Topology topo = CappedChain(2, 4.0);
  topo.SetNodeIoCap(1, util::BytesPerSecond{123456.0});
  const auto json = io::ToJson(topo);
  const auto restored = io::TopologyFromJson(json);
  ASSERT_TRUE(restored.ok());
  EXPECT_DOUBLE_EQ(restored->node(1).io_cap.value(), 123456.0);
  EXPECT_DOUBLE_EQ(restored->node(2).io_cap.value(), 0.0);
}

}  // namespace
}  // namespace vor::storage
