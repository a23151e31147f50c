// Storage Overflow Resolution (SORP-solve, Table 3 / Sec. 4.3).
//
// Iterates: detect all overflow windows; for every residency involved in
// one, tentatively reschedule its file with the rejective greedy; compute
// the heat of that rescheduling; commit the single hottest victim; repeat
// until the integrated schedule is overflow free.
//
// One storage::Load of the whole schedule, holding each IS's space and,
// on a topology with stream caps, the capped links' and origins' streams,
// opens every solve: detection reads it, and a schedule with no overflow
// returns right there, having built nothing else.  Otherwise it is
// delta-maintained across commits (one ApplyCommit each).  Every dry run
// reads a subtractive "all files but the victim" view of it and keeps its
// own streams in a private storage::LoadDelta, which copies a key only
// when the run first writes to it.  The literal
// rebuild-per-dry-run loop lives on only as the test oracle in
// tests/reference_sorp.hpp, which the golden suites compare against.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/heat.hpp"
#include "core/ivsp.hpp"
#include "core/overflow.hpp"
#include "core/schedule.hpp"
#include "util/thread_pool.hpp"
#include "workload/request.hpp"

namespace vor::obs {
class MetricsRegistry;
}  // namespace vor::obs

namespace vor::core {

/// How the victim is chosen among a round's candidates.
enum class VictimPolicy : std::uint8_t {
  /// The paper's rule: reschedule the file with the largest heat.
  kMaxHeat,
  /// Ablation: take the first contributor of the first overflow window
  /// (node/time ordered) — no heat computation at all.
  kFirstContributor,
};

struct SorpOptions {
  HeatMetric heat = HeatMetric::kTimeSpacePerCost;  // M4: best in the paper
  VictimPolicy victim_policy = VictimPolicy::kMaxHeat;
  /// Ablation switch for the "rejective" part of the rejective greedy
  /// (Sec. 4.4): when false, victim reschedules ignore the space other
  /// files reserve, so resolving one overflow may create another — the
  /// failure mode the paper's design avoids.  The loop still terminates
  /// (progress guard), but may leave residual overflows.
  bool capacity_aware_reschedule = true;
  IvspOptions ivsp;
  /// Hard stop for the resolution loop; the loop also stops on its own
  /// when the total excess fails to decrease (defensive, should not fire).
  std::size_t max_iterations = 10000;

  /// Region-sharded resolution (the million-user scale-out), engaged only
  /// when the opening detection finds an overflow.  1 (default)
  /// runs the single global loop.  0 = auto: one shard per route-closed
  /// neighborhood cluster of the topology; N >= 2 coalesces the clusters
  /// to at most N before closure merging.  The engine partitions the IS
  /// graph into regions (net::MakeRegions), merges regions until every
  /// region is closed under cheapest-path routing and no file's requests
  /// span two shards, then resolves each shard's overflows concurrently —
  /// each shard owns its storage::Load and overlay caches — and finishes
  /// with a serial canonical reconciliation pass (per-shard stats/metrics
  /// folded in sorted shard order, then a residual global detection +
  /// monolithic mop-up on the opening aggregate, normally a no-op).
  /// Because a file's greedy only ever touches nodes on cheapest paths
  /// among {VW} and its requesting neighborhoods, shard-confined commits
  /// commute and the final schedule is byte-identical to the monolithic
  /// engine whenever resolution completes within budget (see DESIGN.md
  /// "Region-sharded SORP" for the argument and the max_iterations /
  /// progress-guard caveats; max_iterations is per shard here).  Falls
  /// back to the monolithic loop when the victim policy is not kMaxHeat.
  std::size_t regions = 1;

  // ---- parallelism ----------------------------------------------------
  /// Optional caller-owned pool (null = serial).  Each round's tentative
  /// victim evaluations (one rejective-greedy dry run per overflow
  /// contributor, all against the same frozen integrated schedule) are
  /// independent and fan out over it, as do region shards; the commit
  /// step stays serial and the victim is reduced with a deterministic
  /// tie-break (max heat, then smallest file index, then discovery
  /// order), so the victim sequence — and the final schedule bytes — are
  /// identical at any thread count.  VorScheduler passes the pool phase 1
  /// ran on.
  util::ThreadPool* pool = nullptr;

  // ---- observability --------------------------------------------------
  /// Optional metrics sink: phase span ("sorp"), round/evaluation timers,
  /// candidate/rejection counters, and the excess trajectory series.
  /// Counter and series values are identical at any thread count.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One (victim file, overflow window) pairing from the paper's Table-3
/// nested loops, collected up front so the tentative evaluations can fan
/// out over a pool.  Discovery order (overflow windows node/time ordered,
/// contributors in residency order) is deterministic and doubles as the
/// final tie-break level.
struct SorpCandidate {
  std::size_t file_index = 0;
  net::NodeId node = net::kInvalidNode;
  util::Interval window;
  double chi = 0.0;  // improved-interval length (Eq. 8 input)
  double ds = 0.0;   // time-space improvement (Eq. 10 input)
};

/// Enumerates one round's candidates against the frozen integrated
/// schedule.  Skips residencies with no actual demand inside the window
/// (rescheduling them cannot reduce the excess) and duplicate
/// (file, window) pairings — the dedupe key is the full
/// (file, node, window.start, window.end) tuple, so distinct windows that
/// share a start time are still evaluated separately.  Exposed for
/// diagnostics and direct testing.
[[nodiscard]] std::vector<SorpCandidate> CollectSorpCandidates(
    const Schedule& schedule, const std::vector<OverflowWindow>& overflows,
    const CostModel& cost_model);

struct SorpStats {
  /// Overflow windows in the integrated phase-1 schedule.
  std::size_t initial_overflow_windows = 0;
  /// Victims rescheduled (committed, not tentative evaluations).
  std::size_t victims_rescheduled = 0;
  /// The files those commits replaced, ascending, each once: their plans
  /// are now the rejective greedy's, no longer phase 1's.
  std::vector<std::size_t> victim_files;
  /// Tentative rejective-greedy dry runs (one per candidate per round).
  std::size_t evaluations = 0;
  /// Aggregate builds (storage::Load constructions): the opening build
  /// of the whole schedule, plus one per region shard — commits are
  /// diffs, never rebuilds.
  std::size_t usage_rebuilds = 0;
  /// Shards the region engine resolved concurrently (0 on the monolithic
  /// engine; 1 means the region engine ran but closure merging collapsed
  /// everything into one shard).
  std::size_t region_shards = 0;
  util::Money cost_before{0.0};
  /// cost_before itself when no victim was committed.
  util::Money cost_after{0.0};
  /// Byte-seconds above capacity before/after, both read off the whole
  /// schedule's aggregate, whichever engine ran.
  double initial_excess = 0.0;
  double final_excess = 0.0;
  [[nodiscard]] bool Resolved() const { return final_excess <= 0.0; }
  [[nodiscard]] bool HadOverflow() const { return initial_overflow_windows > 0; }
};

/// Plans SORP replaced: per victim file, in first-commit order, the
/// file's index and the plan it held before its first commit.
using DisplacedPlans = std::vector<std::pair<std::size_t, FileSchedule>>;

/// Resolves storage overflows in-place.  Returns resolution statistics.
/// A non-null `displaced` receives each victim's pre-SORP plan (appended
/// after what it already holds; a file already listed there keeps its
/// entry), which is otherwise destroyed at the commit.
SorpStats SorpSolve(Schedule& schedule,
                    const std::vector<workload::Request>& requests,
                    const CostModel& cost_model, const SorpOptions& options,
                    DisplacedPlans* displaced = nullptr);

}  // namespace vor::core
