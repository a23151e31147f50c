// Individual Video Scheduling (Sec. 3.2) and its constrained variant, the
// Rejective Greedy (Sec. 4.4), share this implementation.
//
// For one video file, requests are processed in chronological order; for
// each request u_k the scheduler evaluates every way of updating the
// existing partial schedule (the decision set the paper enumerates):
//
//   (A) deliver directly from the video warehouse;
//   (B) serve from an intermediate storage already caching the file,
//       extending that residency's interval to t_k;
//   (C) introduce a new caching IS, anchored to a previously scheduled
//       stream of this file that passed through it (caches are filled by
//       copying blocks out of on-going streams, so anchoring is free on
//       the network).
//
// The update with the minimum incremental cost wins.  When a ConstraintSet
// is supplied (phase 2), candidates that would cache inside a forbidden
// (IS, interval) window or exceed an IS's remaining capacity are rejected —
// the "rejective" greedy.  On a topology that declares bandwidth or
// storage I/O caps, a candidate whose stream does not fit the stream load
// is rejected too, in both phases.
#pragma once

#include <vector>

#include "core/cost_model.hpp"
#include "core/schedule.hpp"
#include "storage/load.hpp"
#include "util/interval.hpp"
#include "util/piecewise.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"
#include "workload/request.hpp"

namespace vor::obs {
class MetricsRegistry;
}  // namespace vor::obs

namespace vor::core {

struct IvspOptions {
  /// Allow opening a cache at an IS other than the requester's local one.
  bool allow_remote_caching = true;
  /// Allow serving a request from a cache in another neighborhood.
  bool allow_remote_cache_service = true;
};

/// Decision/rejection tallies of one greedy run.  Collected inline (a few
/// integer increments per request — cheap enough to be always-on); callers
/// aggregate them into an obs::MetricsRegistry.  Values are fully
/// deterministic for a deterministic input.
struct GreedyStats {
  /// Requests placed.
  std::size_t requests = 0;
  /// Winning update kinds (the paper's decision set A/B/C).
  std::size_t direct = 0;
  std::size_t extend = 0;
  std::size_t new_cache = 0;
  /// Candidate updates priced across all requests (direct + each
  /// extension + each new-cache anchor that survived the cheap filters).
  std::size_t candidates = 0;
  /// Rejective-greedy rejections by cause (phase 2 only; all zero when no
  /// ConstraintSet is supplied).
  std::size_t rejected_forbidden = 0;
  std::size_t rejected_capacity = 0;
  std::size_t rejected_route = 0;
  /// Requests with no feasible candidate, forced onto the VW route.
  std::size_t forced_direct = 0;

  GreedyStats& operator+=(const GreedyStats& o) {
    requests += o.requests;
    direct += o.direct;
    extend += o.extend;
    new_cache += o.new_cache;
    candidates += o.candidates;
    rejected_forbidden += o.rejected_forbidden;
    rejected_capacity += o.rejected_capacity;
    rejected_route += o.rejected_route;
    forced_direct += o.forced_direct;
    return *this;
  }
};

/// Constraints for a greedy run: the rejective greedy's (phase 2) and the
/// stream caps (both phases).
struct ConstraintSet {
  /// The victim file must not be resident at `node` during `window`
  /// (occupancy support vs. window overlap test).
  std::vector<std::pair<net::NodeId, util::Interval>> forbidden;

  /// The load of all *other* files, usually storage::Load::Excluding of
  /// the file being planned; null = no capacity or stream checks.  Where
  /// the load holds space, a candidate residency must keep its IS within
  /// capacity; where it holds streams, a candidate's route must fit every
  /// capped link and io-capped origin.  The run keeps the streams it
  /// records in a private storage::LoadDelta over the view, so later
  /// requests of the same file see its earlier streams.
  const storage::LoadView* load = nullptr;

  [[nodiscard]] bool ForbidsResidency(net::NodeId node,
                                      util::Interval support) const;
};

/// Computes S_i for one file.  `indices` are positions into `requests`,
/// in workload::ChronologicalOrder; all must reference `video`.
/// `constraints` may be nullptr (pure phase-1 behaviour: capacity ignored).
/// A non-null `stats` receives this run's decision/rejection tallies.
[[nodiscard]] FileSchedule ScheduleFileGreedy(
    media::VideoId video, const std::vector<workload::Request>& requests,
    const std::vector<std::size_t>& indices, const CostModel& cost_model,
    const IvspOptions& options, const ConstraintSet* constraints,
    GreedyStats* stats = nullptr);

/// Continues the greedy from `plan`, in place: serves `indices` (in
/// workload::ChronologicalOrder, each after every request `plan` already
/// delivers) and appends their deliveries and caches to `plan`.  The
/// greedy serves a title's requests in chronological order and its plan
/// after k requests depends only on those k, so extending the
/// unconstrained greedy's plan over a list's first k requests (or one
/// CutPlan cut back to them) by the rest of the list gives the bytes of
/// a run over the whole list.  A non-empty `plan` requires null
/// `constraints`.  A non-null `stats` receives the tallies of the
/// requests served here.
void ExtendFileGreedy(FileSchedule& plan,
                      const std::vector<workload::Request>& requests,
                      const std::vector<std::size_t>& indices,
                      const CostModel& cost_model, const IvspOptions& options,
                      const ConstraintSet* constraints,
                      GreedyStats* stats = nullptr);

/// What CutPlan took out of a plan, so that Revert can put it back.
class PlanCut {
 public:
  /// The deliveries after the split, in the plan's order: the committed
  /// requests a resumed greedy serves again.
  [[nodiscard]] const std::vector<Delivery>& deliveries() const {
    return deliveries_;
  }

  /// Restores the plan CutPlan cut, byte for byte.  `plan` must be that
  /// plan, unchanged since the cut or extended by ExtendFileGreedy.
  void Revert(FileSchedule& plan) &&;

 private:
  friend PlanCut CutPlan(FileSchedule& plan, std::size_t kept,
                         const std::vector<workload::Request>& requests);

  /// A cache open at the split: its service count and t_last there, and
  /// the services the cut took.
  struct KeptCache {
    std::size_t services = 0;
    util::Seconds t_last{0.0};
    std::vector<std::size_t> cut;
  };

  std::size_t kept_deliveries_ = 0;
  std::vector<Delivery> deliveries_;
  /// One entry per cache open at the split, in the plan's order; the
  /// caches opened after it follow in `opened_`.
  std::vector<KeptCache> kept_;
  std::vector<Residency> opened_;
};

/// Cuts `plan`, the unconstrained greedy's own output over a
/// chronological request list, back in place to the state a run reaches
/// after the list's first `kept` requests: the first `kept` deliveries,
/// the caches they opened with the services among them (t_last back at
/// the last kept service), and nothing else.  The plan delivers in
/// chronological order and opens caches in that order, so the cut takes
/// a suffix of each vector.  Returns what it took.
[[nodiscard]] PlanCut CutPlan(FileSchedule& plan, std::size_t kept,
                              const std::vector<workload::Request>& requests);

/// Phase 1, IVSP-solve (Table 2 of the paper): independent greedy per file,
/// capacity ignored.  Returns one FileSchedule per distinct requested video,
/// ordered by video id.  Placement is PlaceFiles with nothing carried over:
/// pass a thread pool to fan the per-file greedies out across cores
/// (results are identical to the serial run).
///
/// A non-null `metrics` registry receives the phase span ("ivsp") and
/// PlaceFiles' per-file timings and decision counters.
[[nodiscard]] Schedule IvspSolve(const std::vector<workload::Request>& requests,
                                 const CostModel& cost_model,
                                 const IvspOptions& options,
                                 util::ThreadPool* pool = nullptr,
                                 obs::MetricsRegistry* metrics = nullptr);

/// One file phase 1 places: its slot in the schedule, and the requests
/// its greedy serves there, in workload::ChronologicalOrder, after those
/// the slot's plan already delivers.
struct FileWork {
  std::size_t file = 0;
  std::vector<std::size_t> indices;
};

/// Phase-1 placement, shared by IvspSolve and the two-phase solve behind
/// VorScheduler::Solve and IncrementalSolve.  Each entry of `work`
/// (ascending by file, non-empty lists) extends its slot's plan in place
/// with ExtendFileGreedy; every other slot of `schedule.files` holds a
/// plan carried over from an earlier solve and is not touched.  Files
/// are scheduled independently (the definition of phase 1), so without
/// stream caps the entries fan out over `pool` (null = serial); each
/// entry is written by one task, so the result is identical at any
/// thread count.  On a topology with stream caps
/// (storage::HasStreamCaps) the carried plans seed one storage::Load of
/// streams and the entries are placed serially in ascending order, each
/// from an empty plan, constrained by that load and committed to it: a
/// file's streams constrain every later file.
///
/// A non-null `metrics` receives the placed files' greedy timings
/// ("ivsp.file_greedy") and aggregated decision counters (ivsp.*), which
/// count the requests served, not the plans' sizes.  Per-file tallies are
/// collected entry-indexed and folded in serially, so counter values are
/// identical at any thread count.
void PlaceFiles(const std::vector<FileWork>& work,
                const std::vector<workload::Request>& requests,
                const CostModel& cost_model, const IvspOptions& options,
                Schedule& schedule, util::ThreadPool* pool,
                obs::MetricsRegistry* metrics);

}  // namespace vor::core
