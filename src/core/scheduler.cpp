#include "core/scheduler.hpp"

#include <algorithm>
#include <memory>

#include "core/ivsp.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace vor::core {

namespace {

/// The two-phase solve behind Solve and IncrementalSolve.
/// `requests[first_new..]` are the new requests: they are checked, and
/// their titles, like every title `previous` has no plan for, are placed
/// afresh; every other title's plan carries over from `previous`.
util::Result<SolveOutput> SolveTwoPhase(
    const VorScheduler& scheduler, const char* span_name,
    const Schedule& previous, const std::vector<workload::Request>& requests,
    std::size_t first_new) {
  const SchedulerOptions& options = scheduler.options();
  const CostModel& cm = scheduler.cost_model();
  if (const util::Status s = cm.topology().Validate(); !s.ok()) {
    return s.error();
  }
  if (const util::Status s = cm.catalog().Validate(); !s.ok()) {
    return s.error();
  }
  for (std::size_t i = first_new; i < requests.size(); ++i) {
    const workload::Request& r = requests[i];
    if (!cm.catalog().Contains(r.video)) {
      return util::NotFound("request for unknown video id " +
                            std::to_string(r.video));
    }
    if (!cm.topology().IsStorage(r.neighborhood)) {
      return util::InvalidArgument(
          "request neighborhood is not an intermediate storage node");
    }
    if (!workload::IsValidTime(r.start_time)) {
      return util::InvalidArgument(
          "request has a negative or non-finite start time");
    }
  }

  SolveOutput out;
  obs::MetricsRegistry* metrics = options.metrics;
  const obs::ScopedSpan span(metrics, span_name);
  obs::Add(metrics, "solve.requests", requests.size());
  const auto groups = workload::GroupByVideo(requests);
  // One pool serves both phases: phase 1's per-file greedies and SORP's
  // shards and tentative victim evaluations.
  std::unique_ptr<util::ThreadPool> pool;
  if (options.parallel.Resolve() > 1 && groups.size() > 1) {
    pool = std::make_unique<util::ThreadPool>(options.parallel.Resolve());
  }

  // Phase 1.  Request indices into the original prefix stay valid in a
  // carried-over plan because new requests are appended.
  {
    const obs::ScopedSpan ivsp_span(metrics, "ivsp");
    std::vector<const FileSchedule*> carried(groups.size(), nullptr);
    std::size_t carried_over = 0;
    for (std::size_t i = 0; i < groups.size(); ++i) {
      const std::vector<std::size_t>& indices = groups[i].second;
      if (std::any_of(indices.begin(), indices.end(),
                      [&](std::size_t r) { return r >= first_new; })) {
        continue;
      }
      const std::size_t from = previous.FindFile(groups[i].first);
      if (from == static_cast<std::size_t>(-1)) continue;
      carried[i] = &previous.files[from];
      ++carried_over;
    }
    obs::Add(metrics, "incremental.files_carried_over", carried_over);
    obs::Add(metrics, "incremental.files_rescheduled",
             groups.size() - carried_over);
    out.schedule.files.resize(groups.size());
    PlaceFiles(groups, requests, cm, options.ivsp, carried, out.schedule,
               pool.get(), metrics);
  }
  out.phase1_cost = cm.TotalCost(out.schedule);

  SorpOptions sorp_options;
  sorp_options.heat = options.heat;
  sorp_options.ivsp = options.ivsp;
  sorp_options.max_iterations = options.max_sorp_iterations;
  sorp_options.regions = options.sorp_regions;
  sorp_options.pool = pool.get();
  sorp_options.metrics = metrics;
  out.sorp = SorpSolve(out.schedule, requests, cm, sorp_options);
  out.final_cost = out.sorp.cost_after;
  if (pool != nullptr) obs::ExportPoolTelemetry(metrics, *pool);
  return out;
}

}  // namespace

VorScheduler::VorScheduler(const net::Topology& topology,
                           const media::Catalog& catalog,
                           SchedulerOptions options)
    : options_(options),
      router_(topology),
      cost_model_(topology, router_, catalog, options.pricing) {}

util::Result<SolveOutput> VorScheduler::Solve(
    const std::vector<workload::Request>& requests) const {
  return SolveTwoPhase(*this, "solve", Schedule{}, requests, 0);
}

util::Result<SolveOutput> IncrementalSolve(
    const VorScheduler& scheduler, const SolveOutput& previous,
    const std::vector<workload::Request>& original_requests,
    const std::vector<workload::Request>& late_requests,
    std::vector<workload::Request>* merged_requests) {
  if (merged_requests == nullptr) {
    return util::InvalidArgument("merged_requests must not be null");
  }
  *merged_requests = original_requests;
  merged_requests->insert(merged_requests->end(), late_requests.begin(),
                          late_requests.end());
  return SolveTwoPhase(scheduler, "incremental_solve", previous.schedule,
                       *merged_requests, original_requests.size());
}

}  // namespace vor::core
