// VorScheduler: the two-phase Video Scheduler of Sec. 3.1.
//
//   Phase 1 — Individual Video Scheduling: minimum-cost greedy schedule
//   per file, capacity ignored (IVSP-solve, Table 2).
//   Phase 2 — Integration + Storage Overflow Resolution: the per-file
//   schedules are integrated, overflows detected, and victims rescheduled
//   by heat until the schedule fits every intermediate storage
//   (SORP-solve, Table 3).
//
// One routine runs both phases, behind two entry points.  Solve plans a
// whole cycle; IncrementalSolve extends a solution in place with late
// reservations and returns what a failed attempt needs to undo that.
// The routine checks the new requests, groups only them, inserts their
// new titles' empty plans, cuts every touched title at its split (0 for
// a title that cannot resume), extends every touched title from there
// (PlaceFiles), leaves every other title's plan where it is, builds the
// one thread pool both phases share, and runs SORP on the result.
// Solve(r) is IncrementalSolve on an empty solution.
#pragma once

#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/ivsp.hpp"
#include "core/schedule.hpp"
#include "core/sorp.hpp"
#include "media/catalog.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/result.hpp"
#include "util/thread_pool.hpp"
#include "workload/request.hpp"

namespace vor::obs {
class MetricsRegistry;
}  // namespace vor::obs

namespace vor::core {

struct SchedulerOptions {
  HeatMetric heat = HeatMetric::kTimeSpacePerCost;
  PricingOptions pricing;
  IvspOptions ivsp;
  std::size_t max_sorp_iterations = 10000;
  /// SORP region sharding (see SorpOptions::regions): 1 (default) runs the
  /// single global resolution loop; 0 = auto (one shard per route-closed
  /// neighborhood cluster); N >= 2 coalesces the topology's natural
  /// clusters to at most N before closure merging.  Shards resolve
  /// concurrently on the shared pool and reconcile serially; the solved
  /// schedule is byte-identical to the monolithic engine (DESIGN.md
  /// "Region-sharded SORP").
  std::size_t sorp_regions = 1;
  /// Worker threads for a solve, the one parallelism knob: phase 1's
  /// per-file greedies, SORP's region shards and each SORP round's
  /// tentative victim evaluations fan out over one pool per solve (1 =
  /// serial, 0 = hardware concurrency, N = pool of N).  The commit step
  /// stays serial and the victim reduction is deterministic, so the
  /// solved schedule is byte-identical at any thread count.
  util::ParallelOptions parallel{};
  /// Optional caller-owned metrics sink (src/obs).  When set, a solve
  /// records the span hierarchy ("solve" -> "solve/ivsp" / "solve/sorp" /
  /// "solve/sorp/round"; IncrementalSolve roots it at
  /// "incremental_solve"), per-phase counters (greedy decision mix,
  /// candidates, rejections, victims, re-planned and carried-over
  /// titles), the SORP excess trajectory, and thread-pool telemetry.
  /// Never alters the schedule; counter and series values are identical
  /// at any thread count.  nullptr (the default) disables all
  /// instrumentation at the cost of one pointer test per site.
  obs::MetricsRegistry* metrics = nullptr;
};

struct SolveOutput {
  /// One file per title, in ascending title order; a file's deliveries
  /// are its title's requests in workload::ChronologicalOrder, the list
  /// a later IncrementalSolve merges the title's new requests into.
  Schedule schedule;
  /// Per file, 1 when its plan is the unconstrained phase-1 greedy's own
  /// output, so a later solve may resume that greedy from it.  0 for
  /// SORP victims, for every file on a topology with stream caps, and
  /// for every plan a restored service holds.
  std::vector<char> resumable;
  /// Psi of the integrated phase-1 schedule (may be infeasible).
  util::Money phase1_cost{0.0};
  /// Psi of the final overflow-free schedule.
  util::Money final_cost{0.0};
  SorpStats sorp;
};

/// What an in-place solve took out of the solution it extended: the
/// slots it inserted, what its cuts took off the touched titles' plans
/// (a whole plan, for a title cut at 0), SORP victims' pre-SORP plans,
/// and the solution's flags, costs and SORP stats.  Dropping it commits
/// the solve; Revert puts every byte back.  Its size is that of the
/// solve's work, not of the horizon, and it is also the solve's change
/// set: sim::ValidateChange checks only the records it names.
class SolveUndo {
 public:
  /// Restores `state` to the solution the solve that returned this undo
  /// started from.  `state` must be unchanged since that solve.
  void Revert(SolveOutput& state) &&;

  /// Every title phase 1 touched, ascending by slot (slots count the
  /// inserted ones), and what its cut took; a new title's inserted slot
  /// is cut at 0 from an empty plan.  The slot's records past the cut's
  /// kept ones are the solve's.
  [[nodiscard]] const std::vector<std::pair<std::size_t, PlanCut>>& cuts()
      const {
    return cuts_;
  }
  /// SORP's victims and their plans before its first commit to each
  /// (the phase-1 plan, or the carried one if phase 1 did not touch the
  /// title): a victim's whole plan is the solve's.
  [[nodiscard]] const DisplacedPlans& displaced() const { return displaced_; }

 private:
  friend class TwoPhaseSolve;  // src/core/scheduler.cpp

  /// Slots of the titles the solve added, ascending.
  std::vector<std::size_t> inserted_;
  /// Touched titles' slots and what their cuts took.
  std::vector<std::pair<std::size_t, PlanCut>> cuts_;
  /// SORP victims' phase-1 plans.
  DisplacedPlans displaced_;
  std::vector<char> resumable_;
  util::Money phase1_cost_{0.0};
  util::Money final_cost_{0.0};
  SorpStats sorp_;
};

class VorScheduler {
 public:
  /// The topology must Validate(); the catalog must Validate().  Both,
  /// plus the router built here, are referenced for the scheduler's
  /// lifetime.
  VorScheduler(const net::Topology& topology, const media::Catalog& catalog,
               SchedulerOptions options = {});

  /// Computes a complete service schedule for one cycle of reservations.
  /// Requests must reference catalog videos and storage-node
  /// neighborhoods, and start at a finite, non-negative time.
  [[nodiscard]] util::Result<SolveOutput> Solve(
      const std::vector<workload::Request>& requests) const;

  [[nodiscard]] const CostModel& cost_model() const { return cost_model_; }
  [[nodiscard]] const net::Router& router() const { return router_; }
  [[nodiscard]] const SchedulerOptions& options() const { return options_; }

 private:
  SchedulerOptions options_;
  net::Router router_;
  CostModel cost_model_;
};

/// Extends `state`, a solution over `requests[0..first_new)`, in place
/// with `requests[first_new..]`, late reservations that arrive before the
/// cycle's cutoff.  In phase 1 files are scheduled independently, so only
/// the titles the late requests touch are re-planned; every other
/// title's plan stays where it is, untouched, and phase 2 re-resolves
/// storage overflows on the merged schedule (overflow interactions are
/// global, so no shortcut is sound there; SORP stops at its opening
/// detection when nothing overflows).  Phase 1 costs O(new requests) on
/// an append-only horizon: only the late requests are grouped, and every
/// touched title is cut back in place to its split and its greedy
/// extended from there over the cut requests and its late ones.  A title
/// whose plan is still phase 1's (SolveOutput::resumable) splits before
/// its first late request (a binary search over its deliveries) instead
/// of replaying from its first request — the same bytes, because the
/// greedy's plan after k requests depends only on those k.  Any other
/// touched title is cut at 0, which takes its whole plan, and replays.
///
/// `state` must be the output of VorScheduler::Solve (or a prior
/// IncrementalSolve) over `requests[0..first_new)` with the same
/// scheduler, or such a schedule with every flag 0.  `requests` is the
/// caller's log with the late requests appended; request indices in the
/// result refer to it.  A `first_new` past its end, flags that do not
/// match `state`'s files, or an invalid late request are refused before
/// anything moves, leaving `state` untouched.  Otherwise `state` holds
/// the solved result, and the returned undo restores the input: a
/// caller that rejects the result calls `std::move(undo).Revert(state)`,
/// one that keeps it drops the undo.  A non-null
/// `SchedulerOptions::metrics` receives the
/// "incremental.files_rescheduled", "incremental.files_resumed" (the
/// rescheduled titles whose greedy resumed from a kept prefix) and
/// "incremental.files_carried_over" counts.
///
/// Two properties follow:
///   * when the previous run was overflow free, carried-over plans equal
///     their phase-1 plans, so the incremental result is IDENTICAL to
///     re-solving the enlarged cycle from scratch (tests assert this);
///   * when it was not, carrying over the previous *resolved* plans keeps
///     unaffected titles' schedules stable (operationally desirable — the
///     provider has likely already pre-staged those transfers) at a
///     possibly slightly different cost than a scratch re-solve.
///
/// On a topology with stream caps the carried-over files are committed
/// load: their streams seed the stream load and the re-planned files are
/// placed around them (PlaceFiles), so a previous run with carried-over
/// files no longer equals a scratch re-solve; from an empty solution the
/// result still equals VorScheduler::Solve.
[[nodiscard]] util::Result<SolveUndo> IncrementalSolve(
    const VorScheduler& scheduler, SolveOutput& state,
    const std::vector<workload::Request>& requests, std::size_t first_new);

}  // namespace vor::core
