#include "sim/playback_sim.hpp"

#include <gtest/gtest.h>

#include "core/ivsp.hpp"
#include "core/scheduler.hpp"
#include "storage/load.hpp"
#include "test_helpers.hpp"
#include "workload/scenario.hpp"

namespace vor::sim {
namespace {

class PlaybackSimTest : public ::testing::Test {
 protected:
  PlaybackSimTest()
      : router_(ex_.topology),
        cm_(ex_.topology, router_, ex_.catalog),
        schedule_(core::IvspSolve(ex_.requests, cm_, core::IvspOptions{})) {}

  testing::PaperExample ex_;
  net::Router router_;
  core::CostModel cm_;
  core::Schedule schedule_;
};

TEST_F(PlaybackSimTest, ProcessesAllEvents) {
  const SimulationResult result =
      SimulateSchedule(schedule_, ex_.requests, cm_);
  // 3 deliveries (start+end) plus residency events.
  EXPECT_GE(result.events_processed,
            schedule_.TotalDeliveries() * 2 + schedule_.TotalResidencies());
  EXPECT_FALSE(result.nodes.empty());
}

TEST_F(PlaybackSimTest, HorizonSpansCycle) {
  const SimulationResult result =
      SimulateSchedule(schedule_, ex_.requests, cm_);
  EXPECT_LE(result.horizon.start.value(), util::Hours(13.0).value());
  // Last playback ends at 4:00 pm + 90 min = 5:30 pm.
  EXPECT_GE(result.horizon.end.value(), util::Hours(17.5).value() - 1.0);
}

TEST_F(PlaybackSimTest, PeakOccupancyMatchesAnalyticTimeline) {
  const SimulationResult result =
      SimulateSchedule(schedule_, ex_.requests, cm_);
  const storage::Load load(schedule_, cm_);
  for (const NodeTelemetry& node : result.nodes) {
    EXPECT_NEAR(node.peak_bytes, load.SpacePeak(node.node), 1.0)
        << "node " << node.node;
  }
}

TEST_F(PlaybackSimTest, SampledOccupancyMatchesAnalyticEverywhere) {
  const SimulationResult result =
      SimulateSchedule(schedule_, ex_.requests, cm_);
  const storage::Load load(schedule_, cm_);
  for (std::size_t k = 0; k < load.keys().size(); ++k) {
    const net::NodeId node = load.keys()[k].node;
    const util::PiecewiseLinear& timeline = load.timeline(k);
    for (double h = 12.0; h < 19.0; h += 0.05) {
      const util::Seconds t = util::Hours(h);
      EXPECT_NEAR(result.OccupancyAt(node, t), timeline.ValueAt(t), 1e3)
          << "node " << node << " at h=" << h;
    }
  }
}

TEST_F(PlaybackSimTest, ConcurrentStreamsBounded) {
  const SimulationResult result =
      SimulateSchedule(schedule_, ex_.requests, cm_);
  EXPECT_GE(result.peak_concurrent_streams, 1u);
  EXPECT_LE(result.peak_concurrent_streams, schedule_.TotalDeliveries());
}

TEST_F(PlaybackSimTest, LinkTelemetryAccountsAllTraffic) {
  const SimulationResult result =
      SimulateSchedule(schedule_, ex_.requests, cm_);
  double total_link_bytes = 0.0;
  for (const LinkTelemetry& link : result.links) {
    total_link_bytes += link.total_bytes;
    EXPECT_GE(link.peak_streams, 1u);
    EXPECT_GT(link.peak_bandwidth, 0.0);
  }
  // Total link-bytes = sum over deliveries of hops * stream bytes.
  double expected = 0.0;
  for (const core::FileSchedule& f : schedule_.files) {
    for (const core::Delivery& d : f.deliveries) {
      expected += static_cast<double>(d.route.size() - 1) *
                  cm_.StreamBytes(f.video).value();
    }
  }
  EXPECT_NEAR(total_link_bytes, expected, expected * 1e-9 + 1.0);
}

/// One input of the scenario cross-check: a Table-4 world, optionally
/// with every link capped at `cap_streams` typical-title streams.
struct ScenarioInput {
  workload::ScenarioParams params;
  double cap_streams = 0.0;
};

// The simulator is an independent oracle for both analytic timelines:
// storage peaks against storage::Load, and — on the capped inputs
// (bench_bandwidth's scenario) — link peaks against
// storage::MeasureStreams.
TEST(PlaybackSimScenarioTest, FullScenarioAgreesWithAnalyticPeaks) {
  std::vector<ScenarioInput> inputs{ScenarioInput{}};
  workload::ScenarioParams bandwidth_params;
  bandwidth_params.is_capacity = util::GB(8.0);
  bandwidth_params.nrate_per_gb = 500.0;
  bandwidth_params.srate_per_gb_hour = 5.0;
  for (const double cap : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    inputs.push_back(ScenarioInput{bandwidth_params, cap});
  }
  // A typical title streams size/playback ~ 0.58 MB/s.
  const double one_stream = 3.3e9 / (95.0 * 60.0);

  for (const ScenarioInput& input : inputs) {
    SCOPED_TRACE("cap_streams=" + std::to_string(input.cap_streams));
    workload::Scenario scenario = workload::MakeScenario(input.params);
    scenario.topology.SetUniformBandwidthCap(
        util::BytesPerSecond{input.cap_streams * one_stream});
    core::VorScheduler scheduler(scenario.topology, scenario.catalog);
    const auto solved = scheduler.Solve(scenario.requests);
    ASSERT_TRUE(solved.ok());
    const SimulationResult sim = SimulateSchedule(
        solved->schedule, scenario.requests, scheduler.cost_model());
    const storage::Load load(solved->schedule, scheduler.cost_model(),
                             storage::Resources::kSpace);
    for (const NodeTelemetry& node : sim.nodes) {
      EXPECT_NEAR(node.peak_bytes, load.SpacePeak(node.node), 10.0);
      // Final schedule respects capacity, so simulated peaks must too.
      EXPECT_LE(node.peak_bytes,
                scenario.topology.node(node.node).capacity.value() + 10.0);
    }
    if (input.cap_streams == 0.0) continue;

    // Every link carries the same cap, so the simulator's per-link peaks
    // give the overload count and worst utilization directly.
    const double cap = input.cap_streams * one_stream;
    std::size_t overloaded = 0;
    double worst = 0.0;
    for (const LinkTelemetry& link : sim.links) {
      if (link.peak_bandwidth > cap * (1.0 + 1e-12)) ++overloaded;
      worst = std::max(worst, link.peak_bandwidth / cap);
    }
    const storage::StreamReport streams = storage::MeasureStreams(
        solved->schedule, scenario.topology, scenario.catalog);
    EXPECT_EQ(streams.overloaded_links, overloaded);
    EXPECT_DOUBLE_EQ(streams.worst_utilization, worst);
  }
}

TEST(PlaybackSimEdgeTest, EmptyScheduleProducesNothing) {
  const workload::Scenario scenario = workload::MakeScenario({});
  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);
  const SimulationResult result = SimulateSchedule({}, {}, cm);
  EXPECT_EQ(result.events_processed, 0u);
  EXPECT_TRUE(result.nodes.empty());
  EXPECT_TRUE(result.links.empty());
  EXPECT_DOUBLE_EQ(result.OccupancyAt(1, util::Hours(1)), 0.0);
}

}  // namespace
}  // namespace vor::sim
