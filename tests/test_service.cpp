// ReservationService: concurrent intake determinism, admission control's
// never-commit-an-overflow guarantee, snapshot/restore resume, and the
// backpressure / fairness / clock plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/scheduler.hpp"
#include "io/serialize.hpp"
#include "obs/metrics.hpp"
#include "sim/validator.hpp"
#include "storage/load.hpp"
#include "svc/reservation_service.hpp"
#include "svc/snapshot.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"
#include "workload/trace.hpp"

namespace vor {
namespace {

workload::Scenario SmallScenario(double capacity_gb = 50.0) {
  workload::ScenarioParams params;
  params.storage_count = 6;
  params.users_per_neighborhood = 5;
  params.catalog_size = 60;
  params.is_capacity = util::GB(capacity_gb);
  params.seed = 42;
  return workload::MakeScenario(params);
}

/// Replays `requests` through a service: `cycles` contiguous windows in
/// canonical replay order, each submitted by `producers` concurrent
/// threads (round-robin slices), then closed.  Asserts the committed
/// schedule validates after every close and returns its final JSON dump.
std::string ReplayThroughService(const workload::Scenario& scenario,
                                 std::size_t producers, std::size_t cycles,
                                 const svc::ServiceConfig& config) {
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);
  std::vector<workload::Request> requests = scenario.requests;
  workload::SortForReplay(requests);
  const std::size_t per_cycle = (requests.size() + cycles - 1) / cycles;
  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);
  for (std::size_t c = 0; c < cycles; ++c) {
    const std::size_t begin = c * per_cycle;
    const std::size_t end = std::min(requests.size(), begin + per_cycle);
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        for (std::size_t i = begin + p; i < end; i += producers) {
          const auto outcome =
              service.Submit(requests[i], requests[i].start_time);
          EXPECT_NE(outcome, svc::SubmitOutcome::kRejectedInvalid);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const auto stats = service.CloseCycle();
    EXPECT_TRUE(stats.ok()) << stats.error().message;
    // The standing guarantee: whatever was committed validates, capacity
    // check included.
    const auto report = sim::ValidateSchedule(service.CommittedSchedule(),
                                              service.CommittedRequests(), cm);
    EXPECT_TRUE(report.ok()) << sim::ToString(report.violations[0].kind);
  }
  return io::ToJson(service.CommittedSchedule()).Dump();
}

TEST(ServiceDeterminism, ByteIdenticalAcrossProducerCounts) {
  const workload::Scenario scenario = SmallScenario();
  svc::ServiceConfig config;
  config.shards = 4;
  const std::string one = ReplayThroughService(scenario, 1, 3, config);
  const std::string two = ReplayThroughService(scenario, 2, 3, config);
  const std::string eight = ReplayThroughService(scenario, 8, 3, config);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(ServiceDeterminism, ByteIdenticalWhenAdmissionDefers) {
  // Tight capacity + a crippled SORP round budget forces the halving
  // loop to defer; the deferred/committed split must still be identical
  // at any producer count.
  const workload::Scenario scenario = SmallScenario(2.0);
  svc::ServiceConfig config;
  config.shards = 4;
  config.scheduler.max_sorp_iterations = 1;
  const std::string one = ReplayThroughService(scenario, 1, 2, config);
  const std::string two = ReplayThroughService(scenario, 2, 2, config);
  const std::string eight = ReplayThroughService(scenario, 8, 2, config);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

/// Two-IS chain, 1 GB storage, two 0.8 GB titles, expensive network and
/// nearly free storage: the greedy caches both titles at IS1 whenever
/// each has repeat requests, and the two copies overlap past capacity.
net::Topology OverflowTopology() {
  return testing::SmallTopology(2, 1000.0, 0.01, 1.0);
}

media::Catalog TwoHotVideos() {
  media::Catalog catalog;
  for (const char* title : {"hot-a", "hot-b"}) {
    media::Video v;
    v.title = title;
    v.size = util::GB(0.8);
    v.playback = util::Hours(1.5);
    v.bandwidth = v.size / v.playback;
    catalog.Add(v);
  }
  return catalog;
}

/// 8 interleaved requests (4 per title) at IS1.  Each title's requests
/// span a full playback window, so its cached copy occupies the whole
/// 0.8 GB (Gamma = 1) and the two copies peak at 1.6 GB on a 1 GB node.
std::vector<workload::Request> OverflowRequests() {
  std::vector<workload::Request> out;
  for (std::uint32_t u = 0; u < 8; ++u) {
    out.push_back(workload::Request{u, static_cast<media::VideoId>(u % 2),
                                    util::Hours(1.0 + 0.25 * u), 1});
  }
  return out;
}

TEST(ServiceAdmission, NeverCommitsOverflowEvenWithSorpDisabled) {
  // With max_sorp_iterations = 0 the solver cannot fix overflows itself,
  // so only admission control stands between phase 1 and the committed
  // schedule.
  const net::Topology topo = OverflowTopology();
  const media::Catalog catalog = TwoHotVideos();

  svc::ServiceConfig config;
  config.scheduler.max_sorp_iterations = 0;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  svc::ReservationService service(topo, catalog, config);

  for (const workload::Request& r : OverflowRequests()) {
    ASSERT_EQ(service.Submit(r, util::Seconds{static_cast<double>(r.user)}),
              svc::SubmitOutcome::kAccepted);
  }
  const auto stats = service.CloseCycle();
  ASSERT_TRUE(stats.ok());

  const net::Router router(topo);
  const core::CostModel cm(topo, router, catalog);
  const auto report = sim::ValidateSchedule(service.CommittedSchedule(),
                                            service.CommittedRequests(), cm);
  EXPECT_TRUE(report.ok()) << report.violations.size() << " violations";
  // The full batch is infeasible under a 0-round SORP, so something had
  // to give: either a strict subset committed or everything deferred.
  EXPECT_LT(stats->admitted, 8u);
  EXPECT_GT(stats->deferred_out + stats->rejected_expired, 0u);
  EXPECT_GT(stats->solve_attempts, 1u);

  // Later cycles keep draining the deferred set without ever committing
  // an overflow.
  for (int c = 0; c < 4; ++c) {
    ASSERT_TRUE(service.CloseCycle().ok());
    const auto again = sim::ValidateSchedule(
        service.CommittedSchedule(), service.CommittedRequests(), cm);
    EXPECT_TRUE(again.ok());
  }
}

TEST(ServiceAdmission, LooseCapacityCommitsEverything) {
  const workload::Scenario scenario = SmallScenario();
  svc::ServiceConfig config;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);
  for (const workload::Request& r : scenario.requests) {
    ASSERT_EQ(service.Submit(r, r.start_time), svc::SubmitOutcome::kAccepted);
  }
  const auto stats = service.CloseCycle();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->admitted, scenario.requests.size());
  EXPECT_EQ(stats->deferred_out, 0u);
  EXPECT_EQ(stats->solve_attempts, 1u);
  EXPECT_EQ(service.CommittedRequests().size(), scenario.requests.size());
}

TEST(ServiceAdmission, FullStoresStillAdmitTheWholeBatch) {
  // The first two daily closes of examples/week_of_service: 8 GB stores,
  // an evening peak, and a popularity ranking that drifts 15% overnight.
  // Day 1's copies leave little headroom, so day 2's batch piles onto
  // full stores.  Capacity is phase 2's job: the batch reaches SORP
  // whole and commits in one attempt, with nothing deferred.
  workload::ScenarioParams params;
  params.nrate_per_gb = 600.0;
  params.srate_per_gb_hour = 4.0;
  params.is_capacity = util::GB(8.0);
  params.start_profile = workload::StartTimeProfile::kEveningPeak;
  const workload::Scenario base = workload::MakeScenario(params);
  svc::ReservationService service(base.topology, base.catalog);

  std::vector<media::VideoId> rank_to_video(base.catalog.size());
  std::iota(rank_to_video.begin(), rank_to_video.end(), media::VideoId{0});
  util::Rng drift_rng(params.seed ^ 0xD81F7ULL);
  svc::CycleStats last;
  for (std::size_t day = 0; day < 2; ++day) {
    if (day > 0) {
      for (std::size_t m = 0; m < rank_to_video.size() * 15 / 100; ++m) {
        const std::size_t from = drift_rng.NextBounded(rank_to_video.size());
        const std::size_t to = drift_rng.NextBounded(rank_to_video.size());
        const media::VideoId moved = rank_to_video[from];
        rank_to_video.erase(rank_to_video.begin() + static_cast<long>(from));
        rank_to_video.insert(rank_to_video.begin() + static_cast<long>(to),
                             moved);
      }
    }
    workload::WorkloadParams wl;
    wl.users_per_neighborhood = params.users_per_neighborhood;
    wl.zipf_alpha = params.zipf_alpha;
    wl.cycle_length = params.cycle_length;
    wl.profile = params.start_profile;
    wl.seed = params.seed + 0x9E3779B9ULL * (day + 1);
    for (workload::Request r : workload::GenerateRequestsRanked(
             base.topology, base.catalog, wl, rank_to_video)) {
      r.start_time =
          r.start_time + util::Hours(24.0 * static_cast<double>(day));
      ASSERT_EQ(service.Submit(r, r.start_time),
                svc::SubmitOutcome::kAccepted);
    }
    const auto stats = service.CloseCycle();
    ASSERT_TRUE(stats.ok()) << stats.error().message;
    last = *stats;
  }

  EXPECT_GT(last.drained, 0u);
  EXPECT_EQ(last.admitted, last.drained);
  EXPECT_EQ(last.solve_attempts, 1u);
  EXPECT_EQ(last.deferred_out, 0u);
  EXPECT_EQ(service.CommittedRequests().size(), 2 * last.drained);
  const net::Router router(base.topology);
  const core::CostModel cm(base.topology, router, base.catalog);
  const auto report = sim::ValidateSchedule(service.CommittedSchedule(),
                                            service.CommittedRequests(), cm);
  EXPECT_TRUE(report.ok()) << report.violations.size() << " violations";
}

TEST(ServiceAdmission, HonoursLinkBandwidthCaps) {
  // VW - IS0 - IS1 - IS2, every link capped at two streams; three
  // overlapping reservations at IS2.  Direct delivery would put three
  // streams on every link, so the third must come from a cache.
  net::Topology topo;
  const net::NodeId vw = topo.AddWarehouse("VW");
  const util::StorageRate srate{100.0 / 3.6e12};  // $100/(GB*h)
  const util::BytesPerSecond two_streams =
      util::GB(2.0) / util::Hours(1.0);
  net::NodeId prev = vw;
  for (int i = 0; i < 3; ++i) {
    const net::NodeId n =
        topo.AddStorage("IS" + std::to_string(i), util::GB(100), srate);
    topo.AddLink(prev, n, util::NetworkRate{1.0 / 1e9}, two_streams);
    prev = n;
  }
  const media::Catalog catalog = testing::OneVideoCatalog();

  svc::ReservationService service(topo, catalog, svc::ServiceConfig{});
  const double starts[] = {1.0, 1.1, 1.2};
  for (workload::UserId user = 0; user < 3; ++user) {
    const workload::Request r{user, 0, util::Hours(starts[user]), prev};
    ASSERT_EQ(service.Submit(r, r.start_time), svc::SubmitOutcome::kAccepted);
  }
  ASSERT_TRUE(service.CloseCycle().ok());

  const core::VorScheduler scheduler(topo, catalog);
  const auto solved = scheduler.Solve(service.CommittedRequests());
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(io::ToJson(service.CommittedSchedule()).Dump(),
            io::ToJson(solved->schedule).Dump());
  const storage::StreamReport streams =
      storage::MeasureStreams(service.CommittedSchedule(), topo, catalog);
  EXPECT_EQ(streams.overloaded_links, 0u);
  EXPECT_EQ(streams.forced_requests, 0u);
}

TEST(ServiceSnapshot, RestoreResumesWithIdenticalSchedule) {
  const workload::Scenario scenario = SmallScenario();
  std::vector<workload::Request> requests = scenario.requests;
  workload::SortForReplay(requests);
  const std::size_t half = requests.size() / 2;

  svc::ServiceConfig config;
  svc::ReservationService original(scenario.topology, scenario.catalog,
                                   config);
  for (std::size_t i = 0; i < half; ++i) {
    ASSERT_EQ(original.Submit(requests[i], requests[i].start_time),
              svc::SubmitOutcome::kAccepted);
  }
  ASSERT_TRUE(original.CloseCycle().ok());
  // Leave some open intake in the snapshot too.
  for (std::size_t i = half; i < half + 3 && i < requests.size(); ++i) {
    ASSERT_EQ(original.Submit(requests[i], requests[i].start_time),
              svc::SubmitOutcome::kAccepted);
  }

  // Snapshot -> JSON -> "restart" -> restore.
  const util::Json doc = svc::SnapshotToJson(original.Snapshot());
  const auto reparsed = util::Json::Parse(doc.Dump(2));
  ASSERT_TRUE(reparsed.ok());
  const auto snapshot = svc::SnapshotFromJson(*reparsed);
  ASSERT_TRUE(snapshot.ok()) << snapshot.error().message;
  svc::ReservationService restored(scenario.topology, scenario.catalog,
                                   config);
  ASSERT_TRUE(restored.Restore(*snapshot).ok());
  EXPECT_EQ(restored.cycle_index(), original.cycle_index());
  EXPECT_EQ(io::ToJson(restored.CommittedSchedule()).Dump(),
            io::ToJson(original.CommittedSchedule()).Dump());
  EXPECT_EQ(restored.PendingCount(), original.PendingCount());

  // Restoring over live state (its own commits and open intake) discards
  // that state entirely.
  svc::ReservationService overwritten(scenario.topology, scenario.catalog,
                                      config);
  for (std::size_t i = half; i < requests.size(); ++i) {
    ASSERT_EQ(overwritten.Submit(requests[i], requests[i].start_time),
              svc::SubmitOutcome::kAccepted);
  }
  ASSERT_TRUE(overwritten.CloseCycle().ok());
  ASSERT_EQ(overwritten.Submit(requests[0], requests[0].start_time),
            svc::SubmitOutcome::kAccepted);
  ASSERT_TRUE(overwritten.Restore(*snapshot).ok());
  EXPECT_EQ(overwritten.PendingCount(), original.PendingCount());

  // All three continue the horizon identically.
  for (std::size_t i = half + 3; i < requests.size(); ++i) {
    for (svc::ReservationService* s : {&original, &restored, &overwritten}) {
      ASSERT_EQ(s->Submit(requests[i], requests[i].start_time),
                svc::SubmitOutcome::kAccepted);
    }
  }
  for (svc::ReservationService* s : {&original, &restored, &overwritten}) {
    ASSERT_TRUE(s->CloseCycle().ok());
  }
  const std::string expected = io::ToJson(original.CommittedSchedule()).Dump();
  EXPECT_EQ(io::ToJson(restored.CommittedSchedule()).Dump(), expected);
  EXPECT_EQ(io::ToJson(overwritten.CommittedSchedule()).Dump(), expected);
  EXPECT_EQ(restored.CommittedRequests().size(),
            original.CommittedRequests().size());
  EXPECT_EQ(overwritten.CommittedRequests().size(),
            original.CommittedRequests().size());
}

TEST(ServiceSnapshot, RevertedAttemptsCommitWhatARestoreCommits) {
  // Tight stores and a one-round SORP budget make closes halve their
  // batch.  Each failed attempt reverts the committed state the close
  // solves in place, so the attempt that commits must give the bytes a
  // service restored just before the close (every flag 0: each touched
  // title replays from its first request) commits from the same intake.
  // Window w takes every kWindows-th request, so a later window reaches
  // back before committed requests of its titles and cuts their plans.
  workload::ScenarioParams params;
  params.storage_count = 6;
  params.users_per_neighborhood = 12;
  params.catalog_size = 60;
  params.is_capacity = util::GB(3.0);
  params.seed = 42;
  const workload::Scenario scenario = workload::MakeScenario(params);
  svc::ServiceConfig config;
  config.scheduler.max_sorp_iterations = 1;
  svc::ReservationService live(scenario.topology, scenario.catalog, config);
  constexpr std::size_t kWindows = 4;
  std::size_t reverted_on_commits = 0;
  for (std::size_t w = 0; w < kWindows; ++w) {
    for (std::size_t i = w; i < scenario.requests.size(); i += kWindows) {
      ASSERT_EQ(live.Submit(scenario.requests[i],
                            util::Seconds{static_cast<double>(i)}),
                svc::SubmitOutcome::kAccepted);
    }
    const std::size_t committed_before = live.CommittedRequests().size();
    svc::ReservationService restored(scenario.topology, scenario.catalog,
                                     config);
    ASSERT_TRUE(restored.Restore(live.Snapshot()).ok());
    const auto stats = live.CloseCycle();
    ASSERT_TRUE(stats.ok());
    ASSERT_TRUE(restored.CloseCycle().ok());
    EXPECT_EQ(io::ToJson(live.CommittedSchedule()).Dump(),
              io::ToJson(restored.CommittedSchedule()).Dump())
        << "window " << w;
    EXPECT_EQ(live.CommittedRequests().size(),
              restored.CommittedRequests().size());
    EXPECT_EQ(live.DeferredCount(), restored.DeferredCount());
    if (committed_before > 0 && stats->solve_attempts > 1 &&
        stats->admitted > 0) {
      ++reverted_on_commits;
    }
  }
  EXPECT_GT(reverted_on_commits, 0u)
      << "no close on a committed state reverted an attempt and committed";
}

TEST(ServiceState, CountAndLastCloseMatchTheCopies) {
  // CommittedCount and LastCycle answer what CommittedRequests().size()
  // and History().back() do, across closes that revert attempts (tight
  // stores, a one-round SORP budget) and across a restore, which clears
  // the history.
  workload::ScenarioParams params;
  params.storage_count = 6;
  params.users_per_neighborhood = 12;
  params.catalog_size = 60;
  params.is_capacity = util::GB(3.0);
  params.seed = 42;
  const workload::Scenario scenario = workload::MakeScenario(params);
  svc::ServiceConfig config;
  config.scheduler.max_sorp_iterations = 1;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);
  const auto expect_matches = [](const svc::ReservationService& s) {
    EXPECT_EQ(s.CommittedCount(), s.CommittedRequests().size());
    const std::vector<svc::CycleStats> history = s.History();
    const std::optional<svc::CycleStats> last = s.LastCycle();
    ASSERT_EQ(last.has_value(), !history.empty());
    if (!last) return;
    EXPECT_EQ(last->cycle, history.back().cycle);
    EXPECT_EQ(last->admitted, history.back().admitted);
    EXPECT_EQ(last->deferred_out, history.back().deferred_out);
    EXPECT_EQ(last->solve_attempts, history.back().solve_attempts);
    EXPECT_EQ(last->committed_total, history.back().committed_total);
    EXPECT_EQ(last->close_seconds, history.back().close_seconds);
    EXPECT_EQ(last->final_cost, history.back().final_cost);
  };
  expect_matches(service);
  constexpr std::size_t kWindows = 4;
  std::size_t reverted = 0;
  for (std::size_t w = 0; w < kWindows; ++w) {
    for (std::size_t i = w; i < scenario.requests.size(); i += kWindows) {
      ASSERT_EQ(service.Submit(scenario.requests[i],
                               util::Seconds{static_cast<double>(i)}),
                svc::SubmitOutcome::kAccepted);
    }
    const auto stats = service.CloseCycle();
    ASSERT_TRUE(stats.ok());
    if (stats->solve_attempts > 1) ++reverted;
    expect_matches(service);
  }
  EXPECT_GT(reverted, 0u) << "no close reverted an attempt";

  const svc::ServiceSnapshot snapshot = service.Snapshot();
  ASSERT_GT(snapshot.committed.size(), 0u);
  svc::ReservationService restored(scenario.topology, scenario.catalog,
                                   config);
  ASSERT_TRUE(restored.Restore(snapshot).ok());
  EXPECT_EQ(restored.CommittedCount(), snapshot.committed.size());
  EXPECT_FALSE(restored.LastCycle().has_value());
  expect_matches(restored);
  ASSERT_TRUE(restored.CloseCycle().ok());
  expect_matches(restored);
}

TEST(ServiceSnapshot, RejectsForeignOrCorruptSnapshots) {
  const workload::Scenario scenario = SmallScenario();
  svc::ServiceConfig config;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);

  const auto bad_format = util::Json::Parse(R"({"format":"vor-svc/9"})");
  ASSERT_TRUE(bad_format.ok());
  EXPECT_FALSE(svc::SnapshotFromJson(*bad_format).ok());

  // A snapshot whose committed requests reference an unknown video must
  // be refused by Restore.
  svc::ServiceSnapshot foreign;
  foreign.committed.push_back(workload::Request{0, 9999, util::Hours(1.0), 1});
  EXPECT_FALSE(service.Restore(foreign).ok());

  // A schedule that does not serve its committed requests is rejected
  // by the validator integrity check.
  svc::ServiceSnapshot unserved;
  unserved.committed.push_back(workload::Request{0, 0, util::Hours(1.0), 1});
  EXPECT_FALSE(service.Restore(unserved).ok());

  // A NaN arrival in the deferred or pending set is refused, and the
  // refusal leaves the live state (commits, deferrals, intake) as it was.
  std::vector<workload::Request> requests = scenario.requests;
  workload::SortForReplay(requests);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(service.Submit(requests[i], requests[i].start_time),
              svc::SubmitOutcome::kAccepted);
  }
  ASSERT_TRUE(service.CloseCycle().ok());
  ASSERT_EQ(service.Submit(requests[4], requests[4].start_time),
            svc::SubmitOutcome::kAccepted);
  const svc::ServiceSnapshot good = service.Snapshot();
  ASSERT_EQ(good.pending.size(), 1u);
  const std::string schedule_before =
      io::ToJson(service.CommittedSchedule()).Dump();
  const double nan = std::numeric_limits<double>::quiet_NaN();

  svc::ServiceSnapshot nan_deferred = good;
  nan_deferred.deferred.push_back(
      svc::StampedRequest{requests[5], util::Seconds{nan}, 1});
  EXPECT_FALSE(service.Restore(nan_deferred).ok());
  svc::ServiceSnapshot nan_pending = good;
  nan_pending.pending[0].arrival = util::Seconds{nan};
  EXPECT_FALSE(service.Restore(nan_pending).ok());

  // An inverted residency is reported by the validator, whose capacity
  // check must not price it.
  svc::ServiceSnapshot inverted = good;
  ASSERT_FALSE(inverted.schedule.files.empty());
  core::Residency backwards;
  backwards.location = inverted.committed[0].neighborhood;
  backwards.source = scenario.topology.warehouse();
  backwards.t_start = util::Hours(2.0);
  backwards.t_last = util::Hours(1.0);
  inverted.schedule.files[0].residencies.push_back(backwards);
  EXPECT_FALSE(service.Restore(inverted).ok());

  // Files of a title the catalog does not hold, one with a delivery and
  // one with a residency, and a residency at a NaN time: the validator
  // reports each, and prices and loads none of them.
  const auto unknown = static_cast<media::VideoId>(scenario.catalog.size());
  svc::ServiceSnapshot foreign_file = good;
  core::FileSchedule& stray = foreign_file.schedule.files.emplace_back();
  stray.video = unknown;
  core::Delivery& stray_delivery = stray.deliveries.emplace_back();
  const net::Router router(scenario.topology);
  stray_delivery.route =
      router
          .CheapestPath(scenario.topology.warehouse(),
                        good.committed[0].neighborhood)
          .nodes;
  stray_delivery.start = util::Hours(1.0);
  EXPECT_FALSE(service.Restore(foreign_file).ok());
  svc::ServiceSnapshot foreign_residency = good;
  core::Residency foreign_copy = backwards;
  std::swap(foreign_copy.t_start, foreign_copy.t_last);
  core::FileSchedule& holder = foreign_residency.schedule.files.emplace_back();
  holder.video = unknown;
  holder.residencies.push_back(foreign_copy);
  EXPECT_FALSE(service.Restore(foreign_residency).ok());
  svc::ServiceSnapshot nan_residency = good;
  core::Residency nan_copy = backwards;
  nan_copy.t_start = util::Seconds{nan};
  nan_residency.schedule.files[0].residencies.push_back(nan_copy);
  EXPECT_FALSE(service.Restore(nan_residency).ok());

  // Schedules no solve writes: the next close walks the files by title
  // and reads each title's requests from its own file's deliveries.  The
  // validator accepts the first two, which the shape check refuses.  The
  // third files a delivery under a title its request is not for, which
  // the validator reports as an invalid source.
  const core::VorScheduler scheduler(scenario.topology, scenario.catalog);
  std::vector<svc::ServiceSnapshot> misshapen(3, good);
  std::vector<core::FileSchedule>& swapped = misshapen[0].schedule.files;
  ASSERT_GE(swapped.size(), 2u);
  std::swap(swapped[0], swapped[1]);
  std::vector<core::FileSchedule>& twinned = misshapen[1].schedule.files;
  core::FileSchedule twin;
  twin.video = twinned[0].video;
  twinned.insert(twinned.begin() + 1, twin);
  // A direct delivery that anchors no residency of its own file moves
  // under the next title.
  std::vector<core::FileSchedule>& refiled = misshapen[2].schedule.files;
  const auto anchors_nothing = [&](const core::FileSchedule& file,
                                   const core::Delivery& d) {
    return d.origin() == scenario.topology.warehouse() &&
           std::none_of(file.residencies.begin(), file.residencies.end(),
                        [&](const core::Residency& c) {
                          return c.t_start == d.start;
                        });
  };
  std::size_t from = 0;
  std::size_t which = 0;
  for (; from < refiled.size(); ++from) {
    const auto& deliveries = refiled[from].deliveries;
    for (which = 0; which < deliveries.size(); ++which) {
      if (anchors_nothing(refiled[from], deliveries[which])) break;
    }
    if (which < deliveries.size()) break;
  }
  ASSERT_LT(from, refiled.size());
  core::FileSchedule& to = refiled[(from + 1) % refiled.size()];
  to.deliveries.push_back(refiled[from].deliveries[which]);
  refiled[from].deliveries.erase(refiled[from].deliveries.begin() +
                                 static_cast<std::ptrdiff_t>(which));
  for (std::size_t i = 0; i < misshapen.size(); ++i) {
    const sim::ValidationReport report =
        sim::ValidateSchedule(misshapen[i].schedule, misshapen[i].committed,
                              scheduler.cost_model());
    if (i < 2) {
      EXPECT_TRUE(report.ok()) << "misshapen snapshot " << i;
    } else {
      ASSERT_EQ(report.violations.size(), 1u);
      EXPECT_EQ(report.violations[0].kind,
                sim::Violation::Kind::kInvalidSource);
    }
    const util::Status restored = service.Restore(misshapen[i]);
    ASSERT_FALSE(restored.ok()) << "misshapen snapshot " << i;
    EXPECT_EQ(restored.error().code, util::Error::Code::kInvalidArgument);
  }

  EXPECT_EQ(service.cycle_index(), good.cycle_index);
  EXPECT_EQ(io::ToJson(service.CommittedSchedule()).Dump(), schedule_before);
  EXPECT_EQ(service.CommittedRequests().size(), good.committed.size());
  EXPECT_EQ(service.DeferredCount(), good.deferred.size());
  EXPECT_EQ(service.PendingCount(), good.pending.size());
}

TEST(ServiceIntake, BackpressureAndInvalidOutcomes) {
  const workload::Scenario scenario = SmallScenario();
  svc::ServiceConfig config;
  config.shards = 1;
  config.shard_capacity = 2;
  config.deferred_capacity = 2;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);

  const workload::Request bad_video{0, 99999, util::Hours(1.0), 1};
  EXPECT_EQ(service.Submit(bad_video, util::Seconds{0.0}),
            svc::SubmitOutcome::kRejectedInvalid);
  const workload::Request bad_node{
      0, 0, util::Hours(1.0),
      static_cast<net::NodeId>(scenario.topology.node_count() + 7)};
  EXPECT_EQ(service.Submit(bad_node, util::Seconds{0.0}),
            svc::SubmitOutcome::kRejectedInvalid);

  // Non-finite times: a bare `< 0` test would let NaN and +Inf through.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double start : {nan, inf, -inf}) {
    const workload::Request bad_start{0, 0, util::Seconds{start}, 1};
    EXPECT_EQ(service.Submit(bad_start, util::Seconds{0.0}),
              svc::SubmitOutcome::kRejectedInvalid)
        << "start " << start;
  }
  const workload::Request ok{0, 0, util::Hours(1.0), 1};
  for (const double arrival : {nan, inf}) {
    EXPECT_EQ(service.Submit(ok, util::Seconds{arrival}),
              svc::SubmitOutcome::kRejectedInvalid)
        << "arrival " << arrival;
  }
  EXPECT_EQ(service.PendingCount(), 0u);

  EXPECT_EQ(service.Submit(ok, util::Seconds{1.0}),
            svc::SubmitOutcome::kAccepted);
  EXPECT_EQ(service.Submit(ok, util::Seconds{2.0}),
            svc::SubmitOutcome::kAccepted);
  EXPECT_EQ(service.Submit(ok, util::Seconds{3.0}),
            svc::SubmitOutcome::kDeferred);
  EXPECT_EQ(service.Submit(ok, util::Seconds{4.0}),
            svc::SubmitOutcome::kDeferred);
  EXPECT_EQ(service.Submit(ok, util::Seconds{5.0}),
            svc::SubmitOutcome::kRejectedBackpressure);
  EXPECT_EQ(service.PendingCount(), 4u);

  // A close empties both tiers.
  ASSERT_TRUE(service.CloseCycle().ok());
  EXPECT_EQ(service.PendingCount(), 0u);
}

TEST(ServiceIntake, FairnessCapDefersExcessPerUser) {
  const workload::Scenario scenario = SmallScenario();
  svc::ServiceConfig config;
  config.user_cycle_cap = 2;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);
  for (int i = 0; i < 5; ++i) {
    const workload::Request r{7, static_cast<media::VideoId>(i),
                              util::Hours(1.0 + i), 1};
    ASSERT_EQ(service.Submit(r, util::Seconds{static_cast<double>(i)}),
              svc::SubmitOutcome::kAccepted);
  }
  auto stats = service.CloseCycle();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->admitted, 2u);
  EXPECT_EQ(stats->deferred_out, 3u);
  // The backlog drains two per cycle.
  stats = service.CloseCycle();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->admitted, 2u);
  stats = service.CloseCycle();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->admitted, 1u);
  EXPECT_EQ(service.CommittedRequests().size(), 5u);
}

TEST(ServiceIntake, ExpiredDeferralsAreDropped) {
  const net::Topology topo = OverflowTopology();
  const media::Catalog catalog = TwoHotVideos();

  svc::ServiceConfig config;
  config.scheduler.max_sorp_iterations = 0;
  config.max_deferrals = 0;  // one strike
  svc::ReservationService service(topo, catalog, config);
  for (const workload::Request& r : OverflowRequests()) {
    ASSERT_EQ(service.Submit(r, util::Seconds{static_cast<double>(r.user)}),
              svc::SubmitOutcome::kAccepted);
  }
  const auto stats = service.CloseCycle();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->rejected_expired, 0u);
  EXPECT_EQ(stats->deferred_out, 0u);
}

TEST(ServiceClock, BackgroundClockClosesCyclesUnderConcurrentSubmit) {
  const workload::Scenario scenario = SmallScenario();
  svc::ServiceConfig config;
  config.cycle_period_seconds = 0.02;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);
  service.Start();
  service.Start();  // idempotent

  std::atomic<std::size_t> accepted{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = p; i < scenario.requests.size(); i += 2) {
        const workload::Request& r = scenario.requests[i];
        if (service.Submit(r, r.start_time) == svc::SubmitOutcome::kAccepted) {
          accepted.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  // Give the clock a chance to tick at least twice before stopping; the
  // deadline keeps the test bounded on a loaded machine.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.cycle_index() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  service.Stop();
  // Final explicit close sweeps whatever the clock had not drained yet.
  ASSERT_TRUE(service.CloseCycle().ok());
  EXPECT_GT(service.cycle_index(), 1u);
  EXPECT_EQ(service.PendingCount(), 0u);
  EXPECT_EQ(service.CommittedRequests().size() + service.DeferredCount(),
            accepted.load());
}

TEST(ServiceOrdering, DrainOrderIsTotalAndArrivalFirst) {
  const workload::Request a{1, 2, util::Hours(3.0), 1};
  const workload::Request b{0, 9, util::Hours(5.0), 1};
  // Arrival dominates even when the request fields sort the other way.
  EXPECT_TRUE(svc::DrainOrderLess({b, util::Seconds{1.0}, 0},
                                  {a, util::Seconds{2.0}, 0}));
  // Same arrival: replay order (start, user, video) breaks the tie.
  EXPECT_TRUE(svc::DrainOrderLess({a, util::Seconds{1.0}, 0},
                                  {b, util::Seconds{1.0}, 0}));
  // Full duplicates differing only in deferral count.
  EXPECT_TRUE(svc::DrainOrderLess({a, util::Seconds{1.0}, 0},
                                  {a, util::Seconds{1.0}, 1}));
  EXPECT_FALSE(svc::DrainOrderLess({a, util::Seconds{1.0}, 0},
                                   {a, util::Seconds{1.0}, 0}));
}

TEST(ServiceIntake, DeferredSetOverflowIsNotCountedAsExpiry) {
  // A full deferred set drops push-backs as rejected_deferred_full, not
  // rejected_expired: the requests had deferral budget left.
  const net::Topology topo = OverflowTopology();
  const media::Catalog catalog = TwoHotVideos();

  svc::ServiceConfig config;
  config.scheduler.max_sorp_iterations = 0;
  config.max_deferrals = 8;      // plenty of lives left
  config.deferred_capacity = 0;  // but nowhere to wait
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  svc::ReservationService service(topo, catalog, config);
  for (const workload::Request& r : OverflowRequests()) {
    ASSERT_EQ(service.Submit(r, util::Seconds{static_cast<double>(r.user)}),
              svc::SubmitOutcome::kAccepted);
  }
  const auto stats = service.CloseCycle();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->rejected_deferred_full, 0u);
  EXPECT_EQ(stats->rejected_expired, 0u);
  EXPECT_EQ(stats->deferred_out, 0u);
  EXPECT_EQ(metrics.GetCounter("svc.admit.rejected_deferred_full").value(),
            stats->rejected_deferred_full);
  // Nothing expired, so the expiry counter was never touched.
  EXPECT_EQ(metrics.ToJson().Dump().find("svc.admit.rejected_expired"),
            std::string::npos);
}

TEST(ServiceIntake, SkewedUsersOverflowIntoTheAlternateShard) {
  const workload::Scenario scenario = SmallScenario();
  svc::ServiceConfig config;
  config.shards = 4;
  config.shard_capacity = 2;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);

  // Every request hashes to shard 0 (user % 4 == 0).  The home stripe
  // holds 2; the next 2 take the second-choice stripe; only then does
  // the spill tier engage.
  const workload::Request r{4, 0, util::Hours(1.0), 1};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(service.Submit(r, util::Seconds{static_cast<double>(i)}),
              svc::SubmitOutcome::kAccepted);
  }
  EXPECT_EQ(service.Submit(r, util::Seconds{4.0}),
            svc::SubmitOutcome::kDeferred);
  EXPECT_EQ(metrics.GetCounter("svc.submit.accepted_second_choice").value(),
            2u);
  EXPECT_EQ(service.PendingCount(), 5u);
  ASSERT_TRUE(service.CloseCycle().ok());
  EXPECT_EQ(service.PendingCount(), 0u);
}

TEST(ServiceObs, CountersCoverTheSubmitAndCyclePath) {
  const workload::Scenario scenario = SmallScenario();
  obs::MetricsRegistry metrics;
  svc::ServiceConfig config;
  config.metrics = &metrics;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);
  for (const workload::Request& r : scenario.requests) {
    ASSERT_EQ(service.Submit(r, r.start_time), svc::SubmitOutcome::kAccepted);
  }
  ASSERT_TRUE(service.CloseCycle().ok());
  const std::string json = metrics.ToJson().Dump();
  for (const char* key :
       {"svc.submit.accepted", "svc.admit.committed", "svc.cycle.closed",
        "svc.cycle.close_seconds", "svc.cycle.solve_seconds",
        "svc.cycle.queue_depth"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(metrics.GetCounter("svc.submit.accepted").value(),
            scenario.requests.size());
  EXPECT_EQ(metrics.GetCounter("svc.admit.committed").value(),
            scenario.requests.size());
  // One validator run per solve attempt (each one resolves here).
  EXPECT_EQ(metrics.GetTimer("svc.cycle.validate_seconds").Snap().count,
            service.History().front().solve_attempts);
}

}  // namespace
}  // namespace vor
