#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>

#include "core/overflow.hpp"
#include "io/binary.hpp"
#include "obs/metrics.hpp"
#include "sim/validator.hpp"
#include "storage/load.hpp"
#include "test_helpers.hpp"
#include "workload/scenario.hpp"

namespace vor::core {
namespace {

/// Splits a scenario's requests into an early prefix and a late tail by
/// taking every k-th request as "late" (then re-sorting each part).
void SplitRequests(const std::vector<workload::Request>& all, std::size_t k,
                   std::vector<workload::Request>* early,
                   std::vector<workload::Request>* late) {
  for (std::size_t i = 0; i < all.size(); ++i) {
    (i % k == 0 ? late : early)->push_back(all[i]);
  }
}

/// The request log an IncrementalSolve takes: `early`, then `late`.
std::vector<workload::Request> Concat(
    const std::vector<workload::Request>& early,
    const std::vector<workload::Request>& late) {
  std::vector<workload::Request> merged = early;
  merged.insert(merged.end(), late.begin(), late.end());
  return merged;
}

/// Every byte a solution holds: its schedule's vor-bin encoding, its
/// flags, and its costs' and SORP stats' values, bit for bit.
std::string StateBytes(const SolveOutput& state) {
  std::string bytes = io::ScheduleToBinary(state.schedule);
  bytes.append(state.resumable.begin(), state.resumable.end());
  const auto put = [&bytes](auto value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof value);
  };
  const SorpStats& sorp = state.sorp;
  put(state.phase1_cost.value());
  put(state.final_cost.value());
  put(sorp.initial_overflow_windows);
  put(sorp.victims_rescheduled);
  for (const std::size_t v : sorp.victim_files) put(v);
  put(sorp.evaluations);
  put(sorp.usage_rebuilds);
  put(sorp.region_shards);
  put(sorp.cost_before.value());
  put(sorp.cost_after.value());
  put(sorp.initial_excess);
  put(sorp.final_excess);
  return bytes;
}

/// IncrementalSolve in place on a copy of `previous`.  A refused solve
/// must leave the copy as it was; an accepted one must revert to it.
/// Returns the solved copy, or the refusal.
util::Result<SolveOutput> SolveCopy(
    const VorScheduler& scheduler, const SolveOutput& previous,
    const std::vector<workload::Request>& requests, std::size_t first_new) {
  const std::string before = StateBytes(previous);
  SolveOutput state = previous;
  util::Result<SolveUndo> undo =
      IncrementalSolve(scheduler, state, requests, first_new);
  if (!undo.ok()) {
    EXPECT_EQ(StateBytes(state), before) << "a refused solve moved the state";
    return undo.error();
  }
  SolveOutput solved = state;
  std::move(*undo).Revert(state);
  EXPECT_EQ(StateBytes(state), before) << "the revert left other bytes";
  return solved;
}

/// Options that record into `metrics`: every solve adds the titles it
/// re-planned and carried over to the incremental.* counters (a Solve
/// carries nothing over), so a test reads one IncrementalSolve's split as
/// the counters' change across the call.
SchedulerOptions WithMetrics(obs::MetricsRegistry& metrics) {
  SchedulerOptions options;
  options.metrics = &metrics;
  return options;
}

TEST(IncrementalTest, MatchesScratchSolveWhenNoOverflow) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(100);  // overflow free
  const workload::Scenario scenario = workload::MakeScenario(params);
  std::vector<workload::Request> early;
  std::vector<workload::Request> late;
  SplitRequests(scenario.requests, 7, &early, &late);

  obs::MetricsRegistry metrics;
  const VorScheduler scheduler(scenario.topology, scenario.catalog,
                               WithMetrics(metrics));
  const auto first = scheduler.Solve(early);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->sorp.HadOverflow());

  const std::vector<workload::Request> merged = Concat(early, late);
  const obs::Counter& rescheduled =
      metrics.GetCounter("incremental.files_rescheduled");
  const std::uint64_t rescheduled_before = rescheduled.value();
  const auto incremental = SolveCopy(scheduler, *first, merged, early.size());
  ASSERT_TRUE(incremental.ok());
  EXPECT_GT(metrics.GetCounter("incremental.files_carried_over").value(), 0u);
  EXPECT_GT(rescheduled.value(), rescheduled_before);

  const auto scratch = scheduler.Solve(merged);
  ASSERT_TRUE(scratch.ok());
  EXPECT_DOUBLE_EQ(incremental->final_cost.value(),
                   scratch->final_cost.value());
  EXPECT_EQ(incremental->schedule.TotalDeliveries(),
            scratch->schedule.TotalDeliveries());
  EXPECT_EQ(incremental->schedule.TotalResidencies(),
            scratch->schedule.TotalResidencies());
}

TEST(IncrementalTest, TightCapacityStaysFeasibleAndServed) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(5);
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  const workload::Scenario scenario = workload::MakeScenario(params);
  std::vector<workload::Request> early;
  std::vector<workload::Request> late;
  SplitRequests(scenario.requests, 5, &early, &late);

  const VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto first = scheduler.Solve(early);
  ASSERT_TRUE(first.ok());

  const std::vector<workload::Request> merged = Concat(early, late);
  const auto incremental = SolveCopy(scheduler, *first, merged, early.size());
  ASSERT_TRUE(incremental.ok());
  EXPECT_TRUE(incremental->sorp.Resolved());
  EXPECT_TRUE(
      DetectOverflows(incremental->schedule, scheduler.cost_model()).empty());
  const auto report = sim::ValidateSchedule(incremental->schedule, merged,
                                            scheduler.cost_model());
  EXPECT_TRUE(report.ok());
  for (const auto& v : report.violations) {
    ADD_FAILURE() << sim::ToString(v.kind) << ": " << v.detail;
  }
  // Cost should be in the same ballpark as a scratch re-solve.
  const auto scratch = scheduler.Solve(merged);
  ASSERT_TRUE(scratch.ok());
  EXPECT_LT(incremental->final_cost.value(),
            scratch->final_cost.value() * 1.10);
}

TEST(IncrementalTest, EmptyLateBatchKeepsEverything) {
  const workload::Scenario scenario = workload::MakeScenario({});
  obs::MetricsRegistry metrics;
  const VorScheduler scheduler(scenario.topology, scenario.catalog,
                               WithMetrics(metrics));
  const auto first = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(first.ok());
  const std::vector<workload::Request> merged = Concat(scenario.requests, {});
  const obs::Counter& rescheduled =
      metrics.GetCounter("incremental.files_rescheduled");
  const std::uint64_t rescheduled_before = rescheduled.value();
  const auto incremental =
      SolveCopy(scheduler, *first, merged, scenario.requests.size());
  ASSERT_TRUE(incremental.ok());
  EXPECT_EQ(rescheduled.value(), rescheduled_before);
  EXPECT_EQ(merged.size(), scenario.requests.size());
  EXPECT_DOUBLE_EQ(incremental->final_cost.value(),
                   first->final_cost.value());
}

TEST(IncrementalTest, CarriedOverStreamsConstrainRescheduledFiles) {
  // VW -2 streams- IS0 -2 streams- IS1; titles A (0) and B (1), 1 GB,
  // 1 h; storage dear enough that direct delivery wins when it fits.  A
  // at 1.0 h and B at 1.2 h stream direct; a late A at 1.5 h would be
  // the third stream, so the rescheduled A must cache instead, around
  // the carried-over B.  A scratch solve places A first and has to force
  // B through.
  net::Topology topo;
  const net::NodeId vw = topo.AddWarehouse("VW");
  const util::StorageRate srate{10.0 / 3.6e12};  // $10/(GB*h)
  const net::NodeId is0 = topo.AddStorage("IS0", util::GB(100), srate);
  const net::NodeId is1 = topo.AddStorage("IS1", util::GB(100), srate);
  const util::BytesPerSecond two_streams = util::GB(2.0) / util::Hours(1.0);
  topo.AddLink(vw, is0, util::NetworkRate{1.0 / 1e9}, two_streams);
  topo.AddLink(is0, is1, util::NetworkRate{1.0 / 1e9}, two_streams);
  media::Catalog catalog;
  for (const char* title : {"A", "B"}) {
    media::Video v;
    v.title = title;
    v.size = util::GB(1.0);
    v.playback = util::Hours(1.0);
    v.bandwidth = v.size / v.playback;
    catalog.Add(v);
  }
  const std::vector<workload::Request> early{{0, 0, util::Hours(1.0), is1},
                                             {1, 1, util::Hours(1.2), is1}};
  const std::vector<workload::Request> late{{2, 0, util::Hours(1.5), is1}};

  obs::MetricsRegistry metrics;
  const VorScheduler scheduler(topo, catalog, WithMetrics(metrics));
  const auto first = scheduler.Solve(early);
  ASSERT_TRUE(first.ok());
  const std::vector<workload::Request> merged = Concat(early, late);
  const auto incremental = SolveCopy(scheduler, *first, merged, early.size());
  ASSERT_TRUE(incremental.ok());
  EXPECT_EQ(metrics.GetCounter("incremental.files_carried_over").value(), 1u);
  const storage::StreamReport streams =
      storage::MeasureStreams(incremental->schedule, topo, catalog);
  EXPECT_EQ(streams.forced_requests, 0u);
  EXPECT_EQ(streams.overloaded_links, 0u);
  EXPECT_EQ(incremental->schedule.TotalResidencies(), 1u);

  const auto scratch = scheduler.Solve(merged);
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(storage::MeasureStreams(scratch->schedule, topo, catalog)
                .forced_requests,
            1u);
}

TEST(IncrementalTest, RejectsBadLateRequests) {
  const workload::Scenario scenario = workload::MakeScenario({});
  const VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto first = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(first.ok());
  const std::size_t first_new = scenario.requests.size();

  workload::Request bad = scenario.requests[0];
  bad.video = 999999;
  EXPECT_FALSE(
      SolveCopy(scheduler, *first, Concat(scenario.requests, {bad}), first_new)
          .ok());
  bad = scenario.requests[0];
  bad.neighborhood = scenario.topology.warehouse();
  EXPECT_FALSE(
      SolveCopy(scheduler, *first, Concat(scenario.requests, {bad}), first_new)
          .ok());
  for (const double start : {-3600.0, std::nan("")}) {
    bad = scenario.requests[0];
    bad.start_time = util::Seconds{start};
    const auto result = SolveCopy(scheduler, *first,
                                  Concat(scenario.requests, {bad}), first_new);
    ASSERT_FALSE(result.ok()) << "start " << start;
    EXPECT_EQ(result.error().code, util::Error::Code::kInvalidArgument);
  }
}

TEST(IncrementalTest, RejectsPreviousWithMismatchedFlags) {
  const workload::Scenario scenario = workload::MakeScenario({});
  const VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto first = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(first.ok());
  ASSERT_GT(first->schedule.files.size(), 1u);
  const std::vector<workload::Request> merged =
      Concat(scenario.requests, {scenario.requests[0]});
  const std::size_t first_new = scenario.requests.size();
  ASSERT_TRUE(SolveCopy(scheduler, *first, merged, first_new).ok());

  // One flag short, one too many, and none at all: each is refused
  // instead of read past the files.
  for (const std::size_t flags :
       {first->schedule.files.size() - 1, first->schedule.files.size() + 1,
        std::size_t{0}}) {
    SolveOutput previous = *first;
    previous.resumable.assign(flags, 1);
    const auto result = SolveCopy(scheduler, previous, merged, first_new);
    ASSERT_FALSE(result.ok()) << flags << " flags";
    EXPECT_EQ(result.error().code, util::Error::Code::kInvalidArgument);
  }
  const auto past_end = SolveCopy(scheduler, *first, merged, merged.size() + 1);
  ASSERT_FALSE(past_end.ok());
  EXPECT_EQ(past_end.error().code, util::Error::Code::kInvalidArgument);
}

/// What a replay exercised, summed over its closes.
struct ReplayTally {
  std::size_t new_requests = 0;
  /// ivsp.requests: the requests phase 1 served.
  std::uint64_t served = 0;
  /// incremental.files_resumed.
  std::uint64_t resumed = 0;
  /// Resumable flags set, over every path's outputs.
  std::size_t resumable_flags = 0;
  /// SORP victims, and the later requests for a title that was one.
  std::size_t victims = 0;
  std::size_t victim_titles_touched_later = 0;
  /// Restored plans whose deliveries a close saw out of order.
  std::size_t reversed_plans = 0;
};

/// Replays `batches` as successive IncrementalSolves, each in place on
/// the previous close's full output, and checks every close against a
/// restore just before it (the state ReservationService::Restore builds:
/// the same previous output with every resumable flag 0, so every
/// touched title is cut at 0 and replays from its first request; one
/// touched title's restored plan also lists its deliveries in reverse)
/// and against the close after a restore (from the previous close's
/// restored output, with the flags that close left).  All three must
/// give the same bytes.  Each close also solves a copy of its input in
/// place, and of the restored input, which must give every byte the
/// live solve gives and revert to every byte of the input, the reversed
/// order included.
void ReplayAgainstRestored(
    const workload::Scenario& scenario,
    const std::vector<std::vector<workload::Request>>& batches,
    ReplayTally* tally) {
  obs::MetricsRegistry metrics;
  SchedulerOptions options = WithMetrics(metrics);
  options.parallel.threads = 2;  // resumes cut plans on workers
  const VorScheduler scheduler(scenario.topology, scenario.catalog, options);
  const VorScheduler unmetered(scenario.topology, scenario.catalog);
  SolveOutput previous;
  SolveOutput previous_restored;
  std::vector<workload::Request> committed;
  std::set<media::VideoId> victim_titles;
  for (std::size_t close = 0; close < batches.size(); ++close) {
    const std::vector<workload::Request>& batch = batches[close];
    for (const workload::Request& r : batch) {
      tally->victim_titles_touched_later += victim_titles.count(r.video);
    }
    const std::size_t first_new = committed.size();
    committed.insert(committed.end(), batch.begin(), batch.end());
    const std::string before = StateBytes(previous);
    SolveOutput copy = previous;
    ASSERT_TRUE(IncrementalSolve(scheduler, previous, committed, first_new)
                    .ok());
    {
      auto undo = IncrementalSolve(unmetered, copy, committed, first_new);
      ASSERT_TRUE(undo.ok()) << undo.error().message;
      EXPECT_EQ(StateBytes(copy), StateBytes(previous)) << "close " << close;
      std::move(*undo).Revert(copy);
      EXPECT_EQ(StateBytes(copy), before) << "close " << close;
    }
    SolveOutput& restored = copy;
    restored.resumable.assign(restored.schedule.files.size(), 0);
    tally->reversed_plans +=
        testing::ReverseOneTouchedPlan(restored.schedule, batch);
    {
      util::Result<SolveOutput> solved =
          SolveCopy(unmetered, restored, committed, first_new);
      ASSERT_TRUE(solved.ok()) << solved.error().message;
      restored = std::move(*solved);
    }
    ASSERT_TRUE(IncrementalSolve(unmetered, previous_restored, committed,
                                 first_new)
                    .ok());
    const std::string bytes = io::ScheduleToBinary(previous.schedule);
    for (const SolveOutput* other : {&restored, &previous_restored}) {
      EXPECT_EQ(bytes, io::ScheduleToBinary(other->schedule))
          << "close " << close;
    }
    for (const SolveOutput* out : {&previous, &restored, &previous_restored}) {
      ASSERT_EQ(out->resumable.size(), out->schedule.files.size());
      tally->resumable_flags += static_cast<std::size_t>(
          std::count(out->resumable.begin(), out->resumable.end(), 1));
    }
    for (const std::size_t v : previous.sorp.victim_files) {
      EXPECT_EQ(previous.resumable[v], 0) << "close " << close;
      victim_titles.insert(previous.schedule.files[v].video);
    }
    tally->victims += previous.sorp.victim_files.size();
    tally->new_requests += batch.size();
    previous_restored = std::move(restored);
  }
  tally->served = metrics.GetCounter("ivsp.requests").value();
  tally->resumed = metrics.GetCounter("incremental.files_resumed").value();
  EXPECT_GT(tally->reversed_plans, 0u) << "no restored plan was reversed";
}

TEST(IncrementalResumeTest, AppendOnlyReplayServesOnlyNewRequests) {
  const workload::Scenario scenario =
      workload::MakeScenario(testing::ReplayParams(100));
  ReplayTally tally;
  ASSERT_NO_FATAL_FAILURE(ReplayAgainstRestored(
      scenario, testing::Chronological(scenario.requests, 6), &tally));
  EXPECT_EQ(tally.victims, 0u);
  EXPECT_GT(tally.resumed, 0u);
  EXPECT_EQ(tally.served, tally.new_requests);
}

TEST(IncrementalResumeTest, LateRequestsSplitPlansMidway) {
  const workload::Scenario scenario =
      workload::MakeScenario(testing::ReplayParams(100));
  ReplayTally tally;
  ASSERT_NO_FATAL_FAILURE(ReplayAgainstRestored(
      scenario, testing::Interleaved(scenario.requests, 5), &tally));
  EXPECT_GT(tally.resumed, 0u);
  // A mid-plan split serves the committed requests after it again.
  EXPECT_GT(tally.served, tally.new_requests);
}

TEST(IncrementalResumeTest, SorpVictimsReplayFromTheirFirstRequest) {
  const workload::Scenario scenario =
      workload::MakeScenario(testing::ReplayParams(5));
  ReplayTally tally;
  ASSERT_NO_FATAL_FAILURE(ReplayAgainstRestored(
      scenario, testing::Chronological(scenario.requests, 6), &tally));
  EXPECT_GT(tally.victims, 0u);
  EXPECT_GT(tally.victim_titles_touched_later, 0u);
  EXPECT_GT(tally.resumed, 0u);
}

TEST(IncrementalResumeTest, StreamCapsReplayFromTheFirstRequest) {
  workload::Scenario scenario =
      workload::MakeScenario(testing::ReplayParams(100));
  // About two typical streams per link.
  scenario.topology.SetUniformBandwidthCap(util::BytesPerSecond{1.2e6});
  ReplayTally tally;
  ASSERT_NO_FATAL_FAILURE(ReplayAgainstRestored(
      scenario, testing::Chronological(scenario.requests, 6), &tally));
  EXPECT_EQ(tally.resumable_flags, 0u);
  EXPECT_EQ(tally.resumed, 0u);
  EXPECT_GT(tally.served, tally.new_requests);
}

}  // namespace
}  // namespace vor::core
