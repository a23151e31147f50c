#include "core/incremental.hpp"

#include <memory>
#include <set>

#include "core/ivsp.hpp"
#include "core/rejective_greedy.hpp"
#include "obs/metrics.hpp"
#include "storage/stream_load.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace vor::core {

util::Result<SolveOutput> IncrementalSolve(
    const VorScheduler& scheduler, const SolveOutput& previous,
    const std::vector<workload::Request>& original_requests,
    const std::vector<workload::Request>& late_requests,
    std::vector<workload::Request>* merged_requests,
    IncrementalStats* stats) {
  if (merged_requests == nullptr) {
    return util::InvalidArgument("merged_requests must not be null");
  }
  const CostModel& cm = scheduler.cost_model();
  for (const workload::Request& r : late_requests) {
    if (!cm.catalog().Contains(r.video)) {
      return util::NotFound("late request for unknown video id " +
                            std::to_string(r.video));
    }
    if (!cm.topology().IsStorage(r.neighborhood)) {
      return util::InvalidArgument(
          "late request neighborhood is not an intermediate storage node");
    }
  }

  *merged_requests = original_requests;
  merged_requests->insert(merged_requests->end(), late_requests.begin(),
                          late_requests.end());

  std::set<media::VideoId> affected;
  for (const workload::Request& r : late_requests) affected.insert(r.video);

  // Phase 1, incrementally: recompute only affected files; everything
  // else carries over (request indices into the original prefix stay
  // valid because late requests are appended).  The carried-over /
  // rescheduled split is decided serially, then both kinds of slot fill
  // through the same shard-parallel per-file path as IvspSolve — or, on a
  // topology with stream caps, through IvspSolve's serial placement
  // around the carried-over files' streams.
  SolveOutput out;
  IncrementalStats local_stats;
  obs::MetricsRegistry* metrics = scheduler.options().metrics;
  const obs::ScopedSpan span(metrics, "incremental_solve");
  const auto groups = workload::GroupByVideo(*merged_requests);
  constexpr std::size_t kReschedule = static_cast<std::size_t>(-1);
  std::vector<std::size_t> carry_from(groups.size(), kReschedule);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (affected.count(groups[i].first) != 0) continue;
    const std::size_t existing = previous.schedule.FindFile(groups[i].first);
    if (existing != static_cast<std::size_t>(-1)) carry_from[i] = existing;
  }
  for (const std::size_t from : carry_from) {
    ++(from == kReschedule ? local_stats.files_rescheduled
                           : local_stats.files_carried_over);
  }

  out.schedule.files.resize(groups.size());
  const auto fill_slot = [&](std::size_t i) {
    if (carry_from[i] != kReschedule) {
      out.schedule.files[i] = previous.schedule.files[carry_from[i]];
    } else {
      out.schedule.files[i] =
          ScheduleFileGreedy(groups[i].first, *merged_requests,
                             groups[i].second, cm, scheduler.options().ivsp,
                             nullptr);
    }
  };
  std::unique_ptr<util::ThreadPool> pool;
  if (scheduler.options().parallel.Resolve() > 1 && groups.size() > 1) {
    pool = std::make_unique<util::ThreadPool>(
        scheduler.options().parallel.Resolve());
  }
  if (storage::HasStreamCaps(cm.topology())) {
    std::vector<char> place(groups.size(), 0);
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (carry_from[i] == kReschedule) {
        place[i] = 1;
      } else {
        fill_slot(i);
      }
    }
    PlaceFilesUnderStreamCaps(groups, *merged_requests, cm,
                              scheduler.options().ivsp, place, out.schedule);
  } else if (pool != nullptr) {
    pool->ParallelFor(groups.size(), fill_slot);
  } else {
    for (std::size_t i = 0; i < groups.size(); ++i) fill_slot(i);
  }
  out.phase1_cost = cm.TotalCost(out.schedule);
  obs::Add(metrics, "incremental.files_carried_over",
           local_stats.files_carried_over);
  obs::Add(metrics, "incremental.files_rescheduled",
           local_stats.files_rescheduled);

  // Phase 2 runs on the merged schedule as usual: overflow interactions
  // are global, so no shortcut is sound there.
  SorpOptions sorp_options;
  sorp_options.heat = scheduler.options().heat;
  sorp_options.ivsp = scheduler.options().ivsp;
  sorp_options.max_iterations = scheduler.options().max_sorp_iterations;
  sorp_options.regions = scheduler.options().sorp_regions;
  sorp_options.parallel = scheduler.options().parallel;
  sorp_options.pool = pool.get();
  sorp_options.metrics = metrics;
  out.sorp = SorpSolve(out.schedule, *merged_requests, cm, sorp_options);
  out.final_cost = out.sorp.cost_after;

  if (stats != nullptr) *stats = local_stats;
  return out;
}

}  // namespace vor::core
