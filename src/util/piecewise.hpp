// Exact piecewise-linear aggregate profiles.
//
// A file residency occupies space at an intermediate storage following a
// "plateau + linear drain" shape (Sec. 2.2 / Eq. 6 of the paper):
//
//     height |------------------.
//            |                   `.
//            |                     `.
//            +----------+----------+------> t
//            t0         t1         t2
//
// The total space demand at a storage is the SUM of many such pieces, which
// is itself piecewise linear.  This class computes, analytically and with
// no time discretization: point values, maxima, integrals, and the exact
// regions where the aggregate exceeds a threshold (the paper's "storage
// overflow" windows).
//
// Analysis cache: every query except ValueAt/IntegralOver reads an event
// sweep (right-limit value and slope at every breakpoint) that is computed
// once per mutation epoch and cached.  The cache fill is guarded
// (double-checked atomic + mutex), so concurrent READERS of a shared
// timeline — the SORP dry-run fan-out probing the shared aggregate — are
// safe; mutations must still be externally serialized against reads.
//
// Canonical event order: the sweep accumulates piece events (a value jump
// at t0, slope changes at t1 and t2) sorted by time, with ties kept in
// piece order and, within a piece, in t0/t1/t2 order.  Floating-point
// accumulation is order-sensitive, so fixing the tie order makes the sweep
// a pure function of the piece sequence.  It also makes removal exact:
// dropping some pieces drops exactly their events and leaves the rest in
// order, so WithoutTagsIf derives a sub-timeline's sweep from the source's
// sorted events in one linear pass, bit-identical to a fresh build of the
// surviving pieces.  A derived timeline keeps only its sweep and block
// maxima, not the event list.
//
// Block skipping: the sweep also keeps the maximum of every kBlock
// consecutive points.  FitsUnder skips the rest of a block when that
// maximum plus the candidate's value at the first point it would skip
// fits: the candidate never rises with time on its support and IEEE
// rounding is monotone, so no skipped point can fail.  The answer is the
// one a point-by-point walk gives.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/interval.hpp"
#include "util/units.hpp"

namespace vor::util {

/// One plateau+drain contribution.  f(t) = height on [t0, t1),
/// linearly decaying to 0 on [t1, t2), and 0 elsewhere.  t1 == t2 encodes
/// a pure rectangle (no drain tail).
struct LinearPiece {
  Seconds t0{0.0};
  Seconds t1{0.0};
  Seconds t2{0.0};
  double height = 0.0;
  /// Caller-owned identity (e.g. residency index) so threshold crossings
  /// can be traced back to the schedule entries responsible.
  std::uint64_t tag = 0;

  [[nodiscard]] bool Valid() const {
    return t0 <= t1 && t1 <= t2 && height >= 0.0;
  }

  /// Right-continuous point evaluation.
  [[nodiscard]] double ValueAt(Seconds t) const;

  /// Interval over which the piece is non-zero, [t0, t2).
  [[nodiscard]] Interval Support() const { return Interval{t0, t2}; }

  /// Exact integral of the piece over [a, b].
  [[nodiscard]] double IntegralOver(Interval window) const;
};

/// A region where the aggregate profile exceeds some threshold.
struct ExcessRegion {
  Interval window;
  /// Maximum aggregate value within the window.
  double peak = 0.0;
  /// Tags of all pieces whose support overlaps the window.
  std::vector<std::uint64_t> contributors;
};

class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;
  // The analysis cache holds a mutex.  Copies transfer the piece set only
  // and start with a cold cache; moves also carry a filled analysis, so a
  // derived timeline keeps it when placed in a container.
  PiecewiseLinear(const PiecewiseLinear& other) : pieces_(other.pieces_) {}
  PiecewiseLinear(PiecewiseLinear&& other) noexcept
      : pieces_(std::move(other.pieces_)) {
    TakeAnalysis(other);
  }
  PiecewiseLinear& operator=(const PiecewiseLinear& other) {
    if (this != &other) {
      pieces_ = other.pieces_;
      InvalidateCache();
    }
    return *this;
  }
  PiecewiseLinear& operator=(PiecewiseLinear&& other) noexcept {
    if (this != &other) {
      pieces_ = std::move(other.pieces_);
      InvalidateCache();
      TakeAnalysis(other);
    }
    return *this;
  }

  /// Adds a contribution.  Piece must satisfy Valid().
  void Add(const LinearPiece& piece);

  /// Adds a contribution keeping `pieces()` sorted ascending by tag, after
  /// any pieces that already carry its tag.  Used by storage::Load and
  /// storage::LoadDelta to keep delta-maintained timelines in the same
  /// canonical order a from-scratch build produces, so downstream sweeps
  /// are bit-identical between the two paths.
  void InsertSortedByTag(const LinearPiece& piece);

  /// Removes every piece carrying `tag`.  Returns number removed.
  std::size_t RemoveByTag(std::uint64_t tag);

  /// Removes every piece whose tag satisfies `pred` in one pass,
  /// preserving the relative order of the survivors.
  template <typename Pred>
  std::size_t RemoveTagsIf(Pred pred) {
    const auto it =
        std::remove_if(pieces_.begin(), pieces_.end(),
                       [&pred](const LinearPiece& p) { return pred(p.tag); });
    const auto removed =
        static_cast<std::size_t>(std::distance(it, pieces_.end()));
    if (removed != 0) {
      pieces_.erase(it, pieces_.end());
      InvalidateCache();
    }
    return removed;
  }

  /// This timeline without the pieces whose tag satisfies `pred`: the
  /// survivors in their original order, with an analysis derived from this
  /// timeline's sorted events in one linear pass instead of a re-sort.
  /// Every query on the result answers bit-identically to a fresh timeline
  /// of the same pieces.  Safe to call concurrently with other readers.
  template <typename Pred>
  [[nodiscard]] PiecewiseLinear WithoutTagsIf(Pred pred) const {
    std::vector<std::uint8_t> drop(pieces_.size());
    for (std::size_t i = 0; i < pieces_.size(); ++i) {
      drop[i] = pred(pieces_[i].tag) ? 1 : 0;
    }
    return Without(drop);
  }

  void Clear() {
    pieces_.clear();
    InvalidateCache();
  }

  [[nodiscard]] const std::vector<LinearPiece>& pieces() const { return pieces_; }
  [[nodiscard]] bool empty() const { return pieces_.empty(); }

  /// Right-continuous aggregate value at t.  O(n).
  [[nodiscard]] double ValueAt(Seconds t) const;

  /// Maximum aggregate value over the whole timeline.
  [[nodiscard]] double Max() const;

  /// Maximum aggregate value within [window.start, window.end].
  [[nodiscard]] double MaxOver(Interval window) const;

  /// Exact integral of the aggregate over the window.
  [[nodiscard]] double IntegralOver(Interval window) const;

  /// Exact maximal regions where the aggregate is strictly above
  /// `threshold`, with crossing points solved analytically.  Regions are
  /// disjoint, sorted, and annotated with contributing piece tags.
  [[nodiscard]] std::vector<ExcessRegion> RegionsAbove(double threshold) const;

  /// True iff adding `candidate` would keep the aggregate <= threshold
  /// everywhere on the candidate's support.  Used by the rejective greedy
  /// to test capacity before committing a residency.
  [[nodiscard]] bool FitsUnder(const LinearPiece& candidate, double threshold) const;

 private:
  /// Sweep points per block-maximum entry.
  static constexpr std::size_t kBlock = 16;

  /// Right-limit value and slope of the aggregate at every breakpoint.
  struct SweepPoint {
    double t;
    double value;  // right limit
    double slope;  // until the next breakpoint
  };

  /// One piece event: a value jump at t0, then either slope changes at t1
  /// and t2 (drain) or the drop back at t1 == t2 (rectangle).
  struct Event {
    double t;
    double d_value;
    double d_slope;
    /// Index of the emitting piece in pieces_.
    std::uint32_t piece;
    /// 3 * piece + (0, 1, 2 for the t0, t1, t2 event): the tie-break
    /// that makes the event order canonical.
    std::uint32_t order;
  };

  /// Derived, cached analysis of the current piece set.
  struct Analysis {
    /// Every piece's events in canonical order (time, then `order`).
    /// Empty on a derived timeline, to save memory; deriving from one
    /// recomputes them from its pieces.
    std::vector<Event> events;
    std::vector<SweepPoint> sweep;
    /// Maximum sweep value of each run of kBlock consecutive points.
    std::vector<double> block_max;
    /// Global maximum of the aggregate (the sweep's largest value; the
    /// aggregate never rises between breakpoints).  Lets FitsUnder accept
    /// in O(1) whenever even the worst case cannot exceed the threshold.
    double max_value = 0.0;
  };

  /// Events of `pieces` in canonical order.
  [[nodiscard]] static std::vector<Event> CanonicalEvents(
      const std::vector<LinearPiece>& pieces);

  /// Sweep, block maxima and maximum of the canonically ordered `events`,
  /// skipping the events of pieces flagged in `drop` (null keeps all).
  [[nodiscard]] static Analysis Sweep(const std::vector<Event>& events,
                                      const std::uint8_t* drop);

  /// Non-template body of WithoutTagsIf; `drop` flags pieces by index.
  [[nodiscard]] PiecewiseLinear Without(
      const std::vector<std::uint8_t>& drop) const;

  /// Returns the cached analysis, computing it under a lock when stale.
  [[nodiscard]] const Analysis& EnsureAnalysis() const;

  /// Aggregate value at `t` read off the cached event sweep in O(log n):
  /// locate the last sweep point at or before `t` and extend along its
  /// slope.  Max()/RegionsAbove() already evaluate this way; MaxOver and
  /// FitsUnder use it too, so every query agrees on one evaluation of the
  /// aggregate instead of re-summing all pieces per probe point.
  [[nodiscard]] double ValueFromSweep(const Analysis& analysis,
                                      double t) const;
  void InvalidateCache() {
    cache_valid_.store(false, std::memory_order_release);
  }
  /// Moves `other`'s analysis here when it is filled (move construction
  /// and assignment only: `other` has no concurrent readers).
  void TakeAnalysis(PiecewiseLinear& other) {
    if (!other.cache_valid_.load(std::memory_order_acquire)) return;
    cache_ = std::move(other.cache_);
    other.InvalidateCache();
    cache_valid_.store(true, std::memory_order_release);
  }

  std::vector<LinearPiece> pieces_;
  mutable std::mutex cache_mutex_;
  mutable std::atomic<bool> cache_valid_{false};
  mutable Analysis cache_;
};

}  // namespace vor::util
