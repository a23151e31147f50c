#include "core/scheduler.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>

#include "core/ivsp.hpp"
#include "core/rejective_greedy.hpp"
#include "obs/metrics.hpp"
#include "storage/load.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace vor::core {

namespace {

/// The solve's checks, all made before anything in `state` moves.
util::Status CheckInputs(const CostModel& cm, const SolveOutput& state,
                         const std::vector<workload::Request>& requests,
                         std::size_t first_new) {
  if (first_new > requests.size()) {
    return util::InvalidArgument("first_new is past the end of the requests");
  }
  if (state.resumable.size() != state.schedule.files.size()) {
    return util::InvalidArgument(
        "previous solution has not one resumable flag per file");
  }
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
  return util::Status::Ok();
}

/// `indices` (chronological) with `added` (chronological) merged in.
void MergeChronological(std::vector<std::size_t>& indices,
                        const std::vector<std::size_t>& added,
                        const workload::ChronologicalOrder& order) {
  const auto old_end = static_cast<std::ptrdiff_t>(indices.size());
  indices.insert(indices.end(), added.begin(), added.end());
  std::inplace_merge(indices.begin(), indices.begin() + old_end,
                     indices.end(), order);
}

}  // namespace

/// The two-phase solve behind Solve and IncrementalSolve, in place on a
/// solution; it fills the SolveUndo it returns as it goes.
class TwoPhaseSolve {
 public:
  static util::Result<SolveUndo> Run(
      const VorScheduler& scheduler, const char* span_name,
      SolveOutput& state, const std::vector<workload::Request>& requests,
      std::size_t first_new);

 private:
  /// Phase 1's input, made in place.  Groups only the new requests
  /// `requests[first_new..]`, inserts an empty plan for each new title
  /// (ascending title order), and makes each touched title one work
  /// entry.  A title whose plan is still the unconstrained greedy's own
  /// output (`resumable`, never set on a topology with stream caps: a
  /// capped prefix was placed against an older stream load) is cut back
  /// to its split, the deliveries before its first new request in
  /// workload::ChronologicalOrder; its list is the cut requests merged
  /// with its new ones.  New indices follow every old one, so a tie in
  /// start time keeps the old request first.  Any other touched title,
  /// or one whose split is 0, replays from its first request: its plan
  /// moves to the undo, and its list is every request its plan served
  /// (FileRequestIndices) merged with its new ones.
  static std::vector<FileWork> Merge(
      SolveOutput& state, const std::vector<workload::Request>& requests,
      std::size_t first_new, bool caps, SolveUndo& undo,
      std::size_t* resumed);
};

std::vector<FileWork> TwoPhaseSolve::Merge(
    SolveOutput& state, const std::vector<workload::Request>& requests,
    std::size_t first_new, bool caps, SolveUndo& undo, std::size_t* resumed) {
  workload::VideoGroups fresh = workload::GroupByVideo(requests, first_new);
  std::vector<FileSchedule>& files = state.schedule.files;
  std::vector<char>& flags = state.resumable;

  // Each group's position among the committed plans, and whether its
  // title has none yet.
  std::vector<std::size_t> at(fresh.size());
  std::vector<char> is_new(fresh.size(), 0);
  std::size_t added_titles = 0;
  auto from = files.begin();
  for (std::size_t g = 0; g < fresh.size(); ++g) {
    from = std::lower_bound(from, files.end(), fresh[g].first,
                            [](const FileSchedule& file, media::VideoId v) {
                              return file.video < v;
                            });
    at[g] = static_cast<std::size_t>(from - files.begin());
    if (from == files.end() || from->video != fresh[g].first) {
      is_new[g] = 1;
      ++added_titles;
    }
  }
  // Open a slot for each new title, moving the plans after it back; the
  // plans before the first new title stay where they are.
  if (added_titles > 0) {
    std::size_t old_end = files.size();
    std::size_t slot = old_end + added_titles;
    files.resize(slot);
    flags.resize(slot);
    undo.inserted_.resize(added_titles);
    for (std::size_t g = fresh.size(); g-- > 0;) {
      if (is_new[g] == 0) continue;
      while (old_end > at[g]) {
        --old_end;
        --slot;
        files[slot] = std::move(files[old_end]);
        flags[slot] = flags[old_end];
      }
      --slot;
      files[slot] = FileSchedule{};
      files[slot].video = fresh[g].first;
      undo.inserted_[--added_titles] = slot;
    }
  }

  const workload::ChronologicalOrder order{&requests};
  std::vector<FileWork> work;
  work.reserve(fresh.size());
  std::size_t inserted_before = 0;
  for (std::size_t g = 0; g < fresh.size(); ++g) {
    const std::size_t slot = at[g] + inserted_before;
    std::vector<std::size_t>& added = fresh[g].second;
    FileSchedule& plan = files[slot];
    FileWork& entry = work.emplace_back();
    entry.file = slot;
    if (is_new[g] != 0) {
      ++inserted_before;
      entry.indices = std::move(added);
    } else {
      std::size_t kept = 0;
      if (flags[slot] != 0) {
        kept = static_cast<std::size_t>(
            std::partition_point(plan.deliveries.begin(),
                                 plan.deliveries.end(),
                                 [&](const Delivery& d) {
                                   return order(d.request_index,
                                                added.front());
                                 }) -
            plan.deliveries.begin());
      }
      if (kept > 0) {
        PlanCut cut = CutPlan(plan, kept, requests);
        entry.indices.reserve(cut.deliveries().size() + added.size());
        for (const Delivery& d : cut.deliveries()) {
          entry.indices.push_back(d.request_index);
        }
        undo.cuts_.emplace_back(slot, std::move(cut));
        ++*resumed;
      } else {
        entry.indices = FileRequestIndices(plan, requests);
        FileSchedule empty;
        empty.video = plan.video;
        undo.replaced_.emplace_back(slot,
                                    std::exchange(plan, std::move(empty)));
      }
      MergeChronological(entry.indices, added, order);
    }
    flags[slot] = caps ? 0 : 1;
  }
  return work;
}

util::Result<SolveUndo> TwoPhaseSolve::Run(
    const VorScheduler& scheduler, const char* span_name, SolveOutput& state,
    const std::vector<workload::Request>& requests, std::size_t first_new) {
  const SchedulerOptions& options = scheduler.options();
  const CostModel& cm = scheduler.cost_model();
  if (const util::Status s = CheckInputs(cm, state, requests, first_new);
      !s.ok()) {
    return s.error();
  }

  obs::MetricsRegistry* metrics = options.metrics;
  const obs::ScopedSpan span(metrics, span_name);
  obs::Add(metrics, "solve.requests", requests.size());
  SolveUndo undo;
  undo.resumable_ = state.resumable;
  undo.phase1_cost_ = state.phase1_cost;
  undo.final_cost_ = state.final_cost;
  undo.sorp_ = std::move(state.sorp);
  const bool caps = storage::HasStreamCaps(cm.topology());
  std::size_t resumed = 0;
  const std::vector<FileWork> work =
      Merge(state, requests, first_new, caps, undo, &resumed);
  const std::size_t files = state.schedule.files.size();
  // One pool serves both phases: phase 1's per-file greedies and SORP's
  // shards and tentative victim evaluations.
  std::unique_ptr<util::ThreadPool> pool;
  if (options.parallel.Resolve() > 1 && files > 1) {
    pool = std::make_unique<util::ThreadPool>(options.parallel.Resolve());
  }

  // Phase 1.  Request indices into the original prefix stay valid in a
  // carried-over or resumed plan because new requests are appended.
  {
    const obs::ScopedSpan ivsp_span(metrics, "ivsp");
    obs::Add(metrics, "incremental.files_carried_over", files - work.size());
    obs::Add(metrics, "incremental.files_resumed", resumed);
    obs::Add(metrics, "incremental.files_rescheduled", work.size());
    PlaceFiles(work, requests, cm, options.ivsp, state.schedule, pool.get(),
               metrics);
  }

  SorpOptions sorp_options;
  sorp_options.heat = options.heat;
  sorp_options.ivsp = options.ivsp;
  sorp_options.max_iterations = options.max_sorp_iterations;
  sorp_options.regions = options.sorp_regions;
  sorp_options.pool = pool.get();
  sorp_options.metrics = metrics;
  state.sorp = SorpSolve(state.schedule, requests, cm, sorp_options,
                         &undo.displaced_);
  state.phase1_cost = state.sorp.cost_before;
  state.final_cost = state.sorp.cost_after;
  if (pool != nullptr) obs::ExportPoolTelemetry(metrics, *pool);
  for (const std::size_t victim : state.sorp.victim_files) {
    state.resumable[victim] = 0;
  }
  return undo;
}

void SolveUndo::Revert(SolveOutput& state) && {
  std::vector<FileSchedule>& files = state.schedule.files;
  // SORP's commits first: each victim gets its phase-1 plan back, which
  // the phase-1 entries below then undo in turn.
  for (auto& [file, plan] : displaced_) files[file] = std::move(plan);
  for (auto& [file, cut] : cuts_) std::move(cut).Revert(files[file]);
  for (auto& [file, plan] : replaced_) files[file] = std::move(plan);
  if (!inserted_.empty()) {
    std::size_t kept = inserted_.front();
    std::size_t next = 0;
    for (std::size_t f = inserted_.front(); f < files.size(); ++f) {
      if (next < inserted_.size() && inserted_[next] == f) {
        ++next;
        continue;
      }
      files[kept++] = std::move(files[f]);
    }
    files.erase(files.begin() + static_cast<std::ptrdiff_t>(kept),
                files.end());
  }
  state.resumable = std::move(resumable_);
  state.phase1_cost = phase1_cost_;
  state.final_cost = final_cost_;
  state.sorp = std::move(sorp_);
}

VorScheduler::VorScheduler(const net::Topology& topology,
                           const media::Catalog& catalog,
                           SchedulerOptions options)
    : options_(options),
      router_(topology),
      cost_model_(topology, router_, catalog, options.pricing) {}

util::Result<SolveOutput> VorScheduler::Solve(
    const std::vector<workload::Request>& requests) const {
  SolveOutput state;
  const util::Result<SolveUndo> undo =
      TwoPhaseSolve::Run(*this, "solve", state, requests, 0);
  if (!undo.ok()) return undo.error();
  return state;
}

util::Result<SolveUndo> IncrementalSolve(
    const VorScheduler& scheduler, SolveOutput& state,
    const std::vector<workload::Request>& requests, std::size_t first_new) {
  return TwoPhaseSolve::Run(scheduler, "incremental_solve", state, requests,
                            first_new);
}

}  // namespace vor::core
