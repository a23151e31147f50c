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

/// Where a file's greedy starts: from an empty plan, or resumed from a
/// committed plan of the same title.  The greedy serves a title's
/// requests in chronological order and its plan after k requests depends
/// only on those k, so the committed plan, cut back to its first `kept`
/// requests, is the state a straight run reaches after indices[0..kept).
struct PlanSeed {
  /// The unconstrained greedy's own output (constraints null) over a
  /// chronological request list whose first `kept` entries are the first
  /// `kept` of the run's `indices`; null starts from an empty plan.
  const FileSchedule* plan = nullptr;
  /// Requests whose deliveries and caches are kept from `plan` (which
  /// must then be non-null); the greedy serves indices[kept..].  0 replays
  /// from the first request.
  std::size_t kept = 0;
};

/// Computes S_i for one file.  `indices` are positions into `requests`,
/// in workload::ChronologicalOrder; all must reference `video`.
/// `constraints` may be nullptr (pure phase-1 behaviour: capacity ignored).
/// A non-null `stats` receives this run's decision/rejection tallies,
/// which count only the requests served after `seed.kept`.  A seed with
/// a plan requires null `constraints`; the result is byte-identical to
/// the run from an empty plan.
[[nodiscard]] FileSchedule ScheduleFileGreedy(
    media::VideoId video, const std::vector<workload::Request>& requests,
    const std::vector<std::size_t>& indices, const CostModel& cost_model,
    const IvspOptions& options, const ConstraintSet* constraints,
    GreedyStats* stats = nullptr, const PlanSeed& seed = {});

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

/// Phase-1 placement, shared by IvspSolve and the two-phase solve behind
/// VorScheduler::Solve and IncrementalSolve.  Slot i of `schedule.files`
/// (one per group) receives a deep copy of `*seeds[i].plan` when
/// groups[i] lists no request (an untouched title's plan, carried over
/// from an earlier solve; the seed's plan must then be non-null), and
/// otherwise the greedy plan of groups[i] started from seeds[i].  Files
/// are scheduled independently (the definition of phase 1), so without
/// stream caps the slots fan out over `pool` (null = serial); each slot
/// is written by one task, so the result is identical at any thread
/// count.  On a topology with stream caps
/// (storage::HasStreamCaps) the carried plans seed one storage::Load of
/// streams and the other files are placed serially in ascending order,
/// from their first request, each constrained by that load and committed
/// to it: a file's streams constrain every later file.  A capped
/// topology therefore takes no resumed seeds.
///
/// A non-null `metrics` receives the placed files' greedy timings
/// ("ivsp.file_greedy") and aggregated decision counters (ivsp.*), which
/// count the requests served, not the plans' sizes.  Per-file tallies are
/// collected slot-indexed and folded in serially, so counter values are
/// identical at any thread count.
void PlaceFiles(const workload::VideoGroups& groups,
                const std::vector<workload::Request>& requests,
                const CostModel& cost_model, const IvspOptions& options,
                const std::vector<PlanSeed>& seeds, Schedule& schedule,
                util::ThreadPool* pool, obs::MetricsRegistry* metrics);

}  // namespace vor::core
