#include "core/scheduler.hpp"

#include <algorithm>
#include <iterator>
#include <memory>

#include "core/ivsp.hpp"
#include "obs/metrics.hpp"
#include "storage/load.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace vor::core {

namespace {

/// Whether `previous` carries the groups and resumable flags of the solve
/// that produced it, over exactly the `first_new` requests before the new
/// ones.  A restored service's previous solution carries none.
bool HasGroups(const SolveOutput& previous, std::size_t first_new) {
  const std::vector<FileSchedule>& files = previous.schedule.files;
  if (previous.groups.size() != files.size() ||
      previous.resumable.size() != files.size()) {
    return false;
  }
  std::size_t covered = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (previous.groups[i].first != files[i].video) return false;
    covered += previous.groups[i].second.size();
  }
  return covered == first_new;
}

/// Phase 1's input: every title's chronological group, where its greedy
/// starts, and whether the plan it ends with is the unconstrained
/// greedy's own output.
struct Phase1Plan {
  workload::VideoGroups groups;
  std::vector<PlanSeed> seeds;
  std::vector<char> resumable;
  std::size_t carried_over = 0;
  std::size_t resumed = 0;
};

/// Groups only the new requests `requests[first_new..]` and merges them
/// into `previous`'s groups in workload::ChronologicalOrder.  A title with
/// no new request carries its plan over; a touched title resumes its
/// greedy from its committed plan, cut back to the requests before its
/// first new one, when that plan is still the unconstrained greedy's own
/// output (`resumable`, which is never set on a topology with stream
/// caps: a capped prefix was placed against an older stream load);
/// otherwise it replays from its first request.
Phase1Plan MergeGroups(const SolveOutput& previous,
                       const std::vector<workload::Request>& requests,
                       std::size_t first_new, bool caps) {
  Phase1Plan p;
  workload::VideoGroups fresh = workload::GroupByVideo(requests, first_new);
  const workload::VideoGroups& old_groups = previous.groups;
  const workload::ChronologicalOrder order{&requests};
  const std::size_t bound = old_groups.size() + fresh.size();
  p.groups.reserve(bound);
  p.seeds.reserve(bound);
  p.resumable.reserve(bound);
  std::size_t o = 0;
  std::size_t f = 0;
  while (o < old_groups.size() || f < fresh.size()) {
    if (o == old_groups.size() ||
        (f < fresh.size() && fresh[f].first < old_groups[o].first)) {
      p.groups.push_back(std::move(fresh[f++]));
      p.seeds.emplace_back();
      p.resumable.push_back(caps ? 0 : 1);
      continue;
    }
    const auto& [video, old] = old_groups[o];
    const FileSchedule* plan = &previous.schedule.files[o];
    const bool plan_resumable = previous.resumable[o] != 0;
    ++o;
    if (f == fresh.size() || fresh[f].first != video) {
      p.groups.emplace_back(video, old);
      p.seeds.push_back(PlanSeed{plan, old.size()});
      p.resumable.push_back(plan_resumable ? 1 : 0);
      ++p.carried_over;
      continue;
    }
    const std::vector<std::size_t>& added = fresh[f++].second;
    // The split: the old requests before the first new one.  New indices
    // follow every old one, so a tie in start time keeps the old request
    // first.  Only the old requests after the split need comparing.
    const auto split =
        std::partition_point(old.begin(), old.end(), [&](std::size_t r) {
          return order(r, added.front());
        });
    const auto kept = static_cast<std::size_t>(split - old.begin());
    std::vector<std::size_t> merged;
    merged.reserve(old.size() + added.size());
    merged.assign(old.begin(), split);
    std::merge(split, old.end(), added.begin(), added.end(),
               std::back_inserter(merged), order);
    p.groups.emplace_back(video, std::move(merged));
    if (plan_resumable && kept > 0) {
      p.seeds.push_back(PlanSeed{plan, kept});
      ++p.resumed;
    } else {
      p.seeds.emplace_back();
    }
    p.resumable.push_back(caps ? 0 : 1);
  }
  return p;
}

/// Phase 1's input when `previous` carries no groups: the whole horizon
/// is regrouped, touched titles replay from their first request, and no
/// carried plan is known to be phase 1's own.
Phase1Plan Regroup(const Schedule& previous,
                   const std::vector<workload::Request>& requests,
                   std::size_t first_new, bool caps) {
  Phase1Plan p;
  p.groups = workload::GroupByVideo(requests);
  p.seeds.resize(p.groups.size());
  p.resumable.assign(p.groups.size(), caps ? 0 : 1);
  for (std::size_t i = 0; i < p.groups.size(); ++i) {
    const std::vector<std::size_t>& indices = p.groups[i].second;
    if (std::any_of(indices.begin(), indices.end(),
                    [&](std::size_t r) { return r >= first_new; })) {
      continue;
    }
    const std::size_t from = previous.FindFile(p.groups[i].first);
    if (from == static_cast<std::size_t>(-1)) continue;
    p.seeds[i] = PlanSeed{&previous.files[from], indices.size()};
    p.resumable[i] = 0;
    ++p.carried_over;
  }
  return p;
}

/// The two-phase solve behind Solve and IncrementalSolve.
/// `requests[first_new..]` are the new requests: they are checked, and
/// their titles, like every title `previous` has no plan for, are placed
/// afresh or resumed (MergeGroups); every other title's plan carries over
/// from `previous`.
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
  Phase1Plan phase1 =
      HasGroups(previous, first_new)
          ? MergeGroups(previous, requests, first_new, caps)
          : Regroup(previous.schedule, requests, first_new, caps);
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
  for (const std::size_t victim : out.sorp.victim_files) {
    phase1.resumable[victim] = 0;
  }
  out.groups = std::move(phase1.groups);
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
    const std::vector<workload::Request>& original_requests,
    const std::vector<workload::Request>& late_requests,
    std::vector<workload::Request>* merged_requests) {
  if (merged_requests == nullptr) {
    return util::InvalidArgument("merged_requests must not be null");
  }
  *merged_requests = original_requests;
  merged_requests->insert(merged_requests->end(), late_requests.begin(),
                          late_requests.end());
  return SolveTwoPhase(scheduler, "incremental_solve", previous,
                       *merged_requests, original_requests.size());
}

}  // namespace vor::core
