#include "core/scheduler.hpp"

#include <algorithm>
#include <memory>

#include "core/ivsp.hpp"
#include "core/rejective_greedy.hpp"
#include "obs/metrics.hpp"
#include "storage/load.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace vor::core {

namespace {

/// Phase 1's input: per title, its chronological request list, where
/// its greedy starts, and whether the plan it ends with is the
/// unconstrained greedy's own output.  An untouched title has no request
/// list: PlaceFiles carries its seed's plan over.
struct Phase1Plan {
  workload::VideoGroups groups;
  std::vector<PlanSeed> seeds;
  std::vector<char> resumable;
  std::size_t carried_over = 0;
  std::size_t resumed = 0;
};

/// Groups only the new requests `requests[first_new..]` and merges them,
/// title by title, with `previous`'s plans (both in ascending title
/// order).  A title with no new request carries its plan over.  A touched
/// title's committed list is the one its plan's deliveries serve
/// (FileRequestIndices), and its new requests merge into it in
/// workload::ChronologicalOrder.  Its greedy resumes from the plan, cut
/// back to the requests before its first new one, when that plan is
/// still the unconstrained greedy's own output (`resumable`, which is
/// never set on a topology with stream caps: a capped prefix was placed
/// against an older stream load); otherwise it replays from its first
/// request.
Phase1Plan MergeGroups(const SolveOutput& previous,
                       const std::vector<workload::Request>& requests,
                       std::size_t first_new, bool caps) {
  Phase1Plan p;
  workload::VideoGroups fresh = workload::GroupByVideo(requests, first_new);
  const std::vector<FileSchedule>& plans = previous.schedule.files;
  const workload::ChronologicalOrder order{&requests};
  const std::size_t bound = plans.size() + fresh.size();
  p.groups.reserve(bound);
  p.seeds.reserve(bound);
  p.resumable.reserve(bound);
  std::size_t o = 0;
  std::size_t f = 0;
  while (o < plans.size() || f < fresh.size()) {
    if (o == plans.size() ||
        (f < fresh.size() && fresh[f].first < plans[o].video)) {
      p.groups.push_back(std::move(fresh[f++]));
      p.seeds.emplace_back();
      p.resumable.push_back(caps ? 0 : 1);
      continue;
    }
    const FileSchedule& plan = plans[o];
    const bool plan_resumable = previous.resumable[o] != 0;
    ++o;
    if (f == fresh.size() || fresh[f].first != plan.video) {
      p.groups.emplace_back(plan.video, std::vector<std::size_t>{});
      p.seeds.push_back(PlanSeed{&plan, 0});
      p.resumable.push_back(plan_resumable ? 1 : 0);
      ++p.carried_over;
      continue;
    }
    const std::vector<std::size_t>& added = fresh[f++].second;
    std::vector<std::size_t> merged = FileRequestIndices(plan, requests);
    // The split: the old requests before the first new one.  New indices
    // follow every old one, so a tie in start time keeps the old request
    // first.  Only the old requests after the split need merging.
    const auto split = std::partition_point(
        merged.begin(), merged.end(),
        [&](std::size_t r) { return order(r, added.front()); });
    const auto kept = static_cast<std::size_t>(split - merged.begin());
    const auto old_end = static_cast<std::ptrdiff_t>(merged.size());
    merged.insert(merged.end(), added.begin(), added.end());
    std::inplace_merge(merged.begin() + static_cast<std::ptrdiff_t>(kept),
                       merged.begin() + old_end, merged.end(), order);
    p.groups.emplace_back(plan.video, std::move(merged));
    if (plan_resumable && kept > 0) {
      p.seeds.push_back(PlanSeed{&plan, kept});
      ++p.resumed;
    } else {
      p.seeds.emplace_back();
    }
    p.resumable.push_back(caps ? 0 : 1);
  }
  return p;
}

/// The two-phase solve behind Solve and IncrementalSolve.
/// `requests[first_new..]` are the new requests: they are checked, and
/// their titles are placed afresh or resumed (MergeGroups); every other
/// title's plan carries over from `previous`.
util::Result<SolveOutput> SolveTwoPhase(
    const VorScheduler& scheduler, const char* span_name,
    const SolveOutput& previous,
    const std::vector<workload::Request>& requests, std::size_t first_new) {
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
  const bool caps = storage::HasStreamCaps(cm.topology());
  Phase1Plan phase1 = MergeGroups(previous, requests, first_new, caps);
  // One pool serves both phases: phase 1's per-file greedies and SORP's
  // shards and tentative victim evaluations.
  std::unique_ptr<util::ThreadPool> pool;
  if (options.parallel.Resolve() > 1 && phase1.groups.size() > 1) {
    pool = std::make_unique<util::ThreadPool>(options.parallel.Resolve());
  }

  // Phase 1.  Request indices into the original prefix stay valid in a
  // carried-over or resumed plan because new requests are appended.
  {
    const obs::ScopedSpan ivsp_span(metrics, "ivsp");
    obs::Add(metrics, "incremental.files_carried_over", phase1.carried_over);
    obs::Add(metrics, "incremental.files_resumed", phase1.resumed);
    obs::Add(metrics, "incremental.files_rescheduled",
             phase1.groups.size() - phase1.carried_over);
    out.schedule.files.resize(phase1.groups.size());
    PlaceFiles(phase1.groups, requests, cm, options.ivsp, phase1.seeds,
               out.schedule, pool.get(), metrics);
  }

  SorpOptions sorp_options;
  sorp_options.heat = options.heat;
  sorp_options.ivsp = options.ivsp;
  sorp_options.max_iterations = options.max_sorp_iterations;
  sorp_options.regions = options.sorp_regions;
  sorp_options.pool = pool.get();
  sorp_options.metrics = metrics;
  out.sorp = SorpSolve(out.schedule, requests, cm, sorp_options);
  out.phase1_cost = out.sorp.cost_before;
  out.final_cost = out.sorp.cost_after;
  if (pool != nullptr) obs::ExportPoolTelemetry(metrics, *pool);
  for (const std::size_t victim : out.sorp.victim_files) {
    phase1.resumable[victim] = 0;
  }
  out.resumable = std::move(phase1.resumable);
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
  return SolveTwoPhase(*this, "solve", SolveOutput{}, requests, 0);
}

util::Result<SolveOutput> IncrementalSolve(
    const VorScheduler& scheduler, const SolveOutput& previous,
    const std::vector<workload::Request>& requests, std::size_t first_new) {
  if (first_new > requests.size()) {
    return util::InvalidArgument("first_new is past the end of the requests");
  }
  if (previous.resumable.size() != previous.schedule.files.size()) {
    return util::InvalidArgument(
        "previous solution has not one resumable flag per file");
  }
  return SolveTwoPhase(scheduler, "incremental_solve", previous, requests,
                       first_new);
}

}  // namespace vor::core
