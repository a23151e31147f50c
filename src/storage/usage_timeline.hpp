// Per-storage reserved-space profiles for a whole schedule.
//
// Integrating the per-file schedules (Sec. 3.3) means summing every
// residency's occupancy profile at its IS; capacity violations of that sum
// are the paper's Storage Overflow situations.
//
// Two maintenance strategies coexist:
//   * BuildUsage / BuildUsageExcludingFile — rebuild from scratch, O(total
//     residencies).  BuildUsage serves the validator, reports and overflow
//     detection; both serve as oracles for the tracker in the tests.
//   * UsageTracker — SORP's aggregate: built once, then commit diffs in
//     O(victim residencies), serving "usage excluding file f" as a
//     subtractive UsageView without touching other files' pieces.  The
//     piece tags (ResidencyRef::Pack()) index every piece back to its
//     (file, residency), which is what makes the subtraction exact.
//
// Derived overlays: a SORP dry run needs, at each node hosting the victim,
// the aggregate minus the victim's pieces.  The aggregate's cached
// analysis keeps its sweep events in canonical order (time, then piece
// order; see util/piecewise.hpp), so removing the victim's pieces removes
// exactly their events and leaves the rest in order.  The overlay's sweep
// is therefore derived in one linear pass over the aggregate's events
// (PiecewiseLinear::WithoutTagsIf) — no copy-then-re-sort — and answers
// every query bit-identically to BuildUsageExcludingFile.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/cost_model.hpp"
#include "core/schedule.hpp"
#include "util/piecewise.hpp"

namespace vor::storage {

/// Reserved-space profile per intermediate storage node.  Piece tags are
/// ResidencyRef::Pack() values, so every byte of demand is traceable to a
/// schedule entry.
using UsageMap = std::unordered_map<net::NodeId, util::PiecewiseLinear>;

/// Builds the aggregate usage of every residency in the schedule.
[[nodiscard]] UsageMap BuildUsage(const core::Schedule& schedule,
                                  const core::CostModel& cost_model);

/// Same, excluding all residencies of one file — the backdrop against
/// which that file's rejective reschedule is capacity-checked.
[[nodiscard]] UsageMap BuildUsageExcludingFile(const core::Schedule& schedule,
                                               const core::CostModel& cost_model,
                                               std::size_t excluded_file);

/// Peak reserved bytes at a node (0 when the node has no residencies).
[[nodiscard]] double PeakUsage(const UsageMap& usage, net::NodeId node);

/// Read-only view of a UsageMap, optionally with per-node overlays that
/// shadow the base map (used to present "usage excluding file f" without
/// rebuilding anything).
///
/// A default-constructed view has no base map: Find always returns
/// nullptr, which callers treat as an empty timeline (static capacity
/// check only) — the behaviour previously obtained by passing an empty
/// UsageMap.
class UsageView {
 public:
  /// Per-node overlays, sorted ascending by node id.  A handful of nodes
  /// at most (the excluded file's hosts), so a sorted vector beats a hash
  /// map on both lookup cost and per-view allocation churn.
  using Overlay = std::vector<std::pair<net::NodeId, util::PiecewiseLinear>>;

  UsageView() = default;
  explicit UsageView(const UsageMap* base) : base_(base) {}
  UsageView(const UsageMap* base, std::shared_ptr<const Overlay> overlay)
      : base_(base), overlay_(std::move(overlay)) {}

  /// Timeline at `node`, or nullptr when the node has no pieces.
  [[nodiscard]] const util::PiecewiseLinear* Find(net::NodeId node) const;

 private:
  const UsageMap* base_ = nullptr;
  /// Shared with the tracker's overlay cache: the overlay for a file is
  /// reusable (pieces and cached analysis both) until one of the file's
  /// host nodes changes, so concurrent views of the same file alias one
  /// immutable copy instead of each re-deriving it.
  std::shared_ptr<const Overlay> overlay_;
};

/// Delta-maintained aggregate usage for the SORP loop.
///
/// Invariant: usage() is byte-identical (piece-for-piece, in the same
/// ascending-tag order) to BuildUsage() on the current schedule.  Fresh
/// builds iterate files then residencies in ascending order and
/// ResidencyRef::Pack is strictly monotone in (file, residency), so the
/// canonical per-node order is ascending tag; ApplyCommit preserves it via
/// order-stable removal and sorted insertion.
class UsageTracker {
 public:
  UsageTracker(const core::Schedule& schedule, const core::CostModel& cost_model);

  /// File-subset tracker (region-sharded SORP): aggregates only `files`
  /// (sorted ascending — iteration in file order keeps the canonical
  /// ascending-tag piece order).  ApplyCommit / ExcludingFile still take
  /// global file indices, and indices outside the subset simply have no
  /// pieces.  Concurrent shard trackers over disjoint subsets never touch
  /// each other's state.
  UsageTracker(const core::Schedule& schedule, const core::CostModel& cost_model,
               const std::vector<std::size_t>& files);

  /// The live aggregate (matches BuildUsage on the tracked schedule).
  [[nodiscard]] const UsageMap& usage() const { return usage_; }

  /// Subtractive view: aggregate minus all of `file`'s pieces.  Only the
  /// nodes hosting that file get an overlay timeline, derived from the
  /// aggregate's sorted events without re-sorting; every other node reads
  /// straight from the shared aggregate.  Overlays are cached per file and
  /// revalidated against the host nodes' generations, so repeat dry runs
  /// of the same file reuse one immutable overlay — including its derived
  /// sweep — until a commit touches one of its hosts.  Safe to call
  /// concurrently (the cache is mutex-guarded; overlays are immutable once
  /// published).
  [[nodiscard]] UsageView ExcludingFile(std::size_t file) const;

  /// Swaps `file`'s contribution for `replacement`'s residencies:
  /// O(pieces at touched nodes).  Bumps the generation counter of every
  /// node whose piece geometry changed (old or new host of the file).
  void ApplyCommit(std::size_t file, const core::FileSchedule& replacement);

  /// Monotone per-node mutation counter; 0 for nodes never touched by a
  /// commit.  ExcludingFile's overlay cache validates against it: a cached
  /// overlay is stale iff one of its host nodes has advanced since it was
  /// built.
  [[nodiscard]] std::uint64_t NodeGeneration(net::NodeId node) const;

 private:
  /// One cached subtractive overlay: valid while the file still lives on
  /// exactly `nodes` and none of their generations moved.
  struct CachedOverlay {
    std::shared_ptr<const UsageView::Overlay> overlay;
    std::vector<net::NodeId> nodes;
    std::vector<std::uint64_t> generations;
  };

  const core::CostModel* cost_model_;
  UsageMap usage_;
  /// Nodes currently hosting each file's residencies (sorted, deduped).
  std::vector<std::vector<net::NodeId>> file_nodes_;
  std::unordered_map<net::NodeId, std::uint64_t> generations_;
  mutable std::mutex overlay_mutex_;
  mutable std::unordered_map<std::size_t, CachedOverlay> overlay_cache_;
};

}  // namespace vor::storage
