#include "util/piecewise.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace vor::util {

double LinearPiece::ValueAt(Seconds t) const {
  const double x = t.value();
  if (x < t0.value() || x >= t2.value()) {
    // A pure rectangle (t1 == t2) is non-zero on [t0, t1) only; handled by
    // the range check above since t2 == t1.
    return (x >= t0.value() && x < t1.value()) ? height : 0.0;
  }
  if (x < t1.value()) return height;
  const double drain = t2.value() - t1.value();
  if (drain <= 0.0) return 0.0;
  return height * (1.0 - (x - t1.value()) / drain);
}

double LinearPiece::IntegralOver(Interval window) const {
  double total = 0.0;
  // Plateau part: rectangle height over [t0, t1).
  {
    const Interval overlap = Intersect(window, Interval{t0, t1});
    total += height * overlap.length().value();
  }
  // Drain part: linear from height at t1 to 0 at t2.
  const double drain = t2.value() - t1.value();
  if (drain > 0.0) {
    const Interval overlap = Intersect(window, Interval{t1, t2});
    if (!overlap.empty()) {
      const double a = overlap.start.value();
      const double b = overlap.end.value();
      // f(x) = height * (t2 - x) / drain  ->  integral over [a, b]
      const double fa = height * (t2.value() - a) / drain;
      const double fb = height * (t2.value() - b) / drain;
      total += 0.5 * (fa + fb) * (b - a);
    }
  }
  return total;
}

void PiecewiseLinear::Add(const LinearPiece& piece) {
  assert(piece.Valid());
  pieces_.push_back(piece);
  InvalidateCache();
}

void PiecewiseLinear::InsertSortedByTag(const LinearPiece& piece) {
  assert(piece.Valid());
  const auto it = std::upper_bound(
      pieces_.begin(), pieces_.end(), piece.tag,
      [](std::uint64_t tag, const LinearPiece& p) { return tag < p.tag; });
  pieces_.insert(it, piece);
  InvalidateCache();
}

std::size_t PiecewiseLinear::RemoveByTag(std::uint64_t tag) {
  return RemoveTagsIf([tag](std::uint64_t t) { return t == tag; });
}

double PiecewiseLinear::ValueAt(Seconds t) const {
  double total = 0.0;
  for (const LinearPiece& p : pieces_) total += p.ValueAt(t);
  return total;
}

std::vector<PiecewiseLinear::Event> PiecewiseLinear::CanonicalEvents(
    const std::vector<LinearPiece>& pieces) {
  // Event-decompose every piece — a value jump at t0, a slope change at t1,
  // and the reverse slope change at t2 (rectangles jump back down at
  // t1 == t2 instead) — then sort by time, breaking ties by emission order.
  assert(pieces.size() < (std::size_t{1} << 31) / 3);
  std::vector<Event> events;
  events.reserve(pieces.size() * 3);
  for (std::uint32_t i = 0; i < pieces.size(); ++i) {
    const LinearPiece& p = pieces[i];
    const double drain = p.t2.value() - p.t1.value();
    events.push_back({p.t0.value(), p.height, 0.0, i, 3 * i});
    if (drain > 0.0) {
      const double rate = p.height / drain;
      events.push_back({p.t1.value(), 0.0, -rate, i, 3 * i + 1});
      events.push_back({p.t2.value(), 0.0, rate, i, 3 * i + 2});
    } else {
      events.push_back({p.t1.value(), -p.height, 0.0, i, 3 * i + 1});
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.t < b.t || (a.t == b.t && a.order < b.order);
  });
  return events;
}

PiecewiseLinear::Analysis PiecewiseLinear::Sweep(
    const std::vector<Event>& events, const std::uint8_t* drop) {
  // One pass yields the aggregate's right-limit value and slope at every
  // breakpoint.  Dropped events are skipped before they can open a
  // breakpoint, so the result is exactly the sweep of the survivors.
  const auto kept = [&](std::size_t i) {
    return drop == nullptr || drop[events[i].piece] == 0;
  };
  Analysis out;
  out.sweep.reserve(events.size());
  double value = 0.0;
  double slope = 0.0;
  double prev_t = 0.0;
  bool started = false;
  for (std::size_t i = 0; i < events.size();) {
    if (!kept(i)) {
      ++i;
      continue;
    }
    const double t = events[i].t;
    if (started) value += slope * (t - prev_t);
    for (; i < events.size() && events[i].t == t; ++i) {
      if (!kept(i)) continue;
      value += events[i].d_value;
      slope += events[i].d_slope;
    }
    // Sweep drift can leave a tiny negative residue after all pieces end.
    if (value < 0.0 && value > -1e-6) value = 0.0;
    if (out.sweep.size() % kBlock == 0) out.block_max.push_back(value);
    out.block_max.back() = std::max(out.block_max.back(), value);
    out.sweep.push_back(SweepPoint{t, value, slope});
    out.max_value = std::max(out.max_value, value);
    prev_t = t;
    started = true;
  }
  return out;
}

PiecewiseLinear PiecewiseLinear::Without(
    const std::vector<std::uint8_t>& drop) const {
  PiecewiseLinear out;
  out.pieces_.reserve(pieces_.size());
  for (std::size_t i = 0; i < pieces_.size(); ++i) {
    if (drop[i] == 0) out.pieces_.push_back(pieces_[i]);
  }
  const Analysis& analysis = EnsureAnalysis();
  if (analysis.events.empty() && !pieces_.empty()) {
    // A derived timeline keeps no events; recover them from the pieces.
    out.cache_ = Sweep(CanonicalEvents(pieces_), drop.data());
  } else {
    out.cache_ = Sweep(analysis.events, drop.data());
  }
  out.cache_valid_.store(true, std::memory_order_release);
  return out;
}

const PiecewiseLinear::Analysis& PiecewiseLinear::EnsureAnalysis() const {
  if (cache_valid_.load(std::memory_order_acquire)) return cache_;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (cache_valid_.load(std::memory_order_relaxed)) return cache_;

  std::vector<Event> events = CanonicalEvents(pieces_);
  cache_ = Sweep(events, nullptr);
  cache_.events = std::move(events);
  cache_valid_.store(true, std::memory_order_release);
  return cache_;
}

double PiecewiseLinear::Max() const {
  // Aggregate slope between jumps is never positive (pieces only plateau
  // or drain), so the maximum is attained at the right limit of a
  // breakpoint and is tracked during the sweep build.
  return EnsureAnalysis().max_value;
}

double PiecewiseLinear::ValueFromSweep(const Analysis& analysis,
                                       double t) const {
  // Last sweep point at or before t; the aggregate is linear from there.
  // The sweep stores right limits, matching ValueAt's right-continuity.
  const std::vector<SweepPoint>& sweep = analysis.sweep;
  const auto it = std::upper_bound(
      sweep.begin(), sweep.end(), t,
      [](double v, const SweepPoint& p) { return v < p.t; });
  if (it == sweep.begin()) return 0.0;
  const SweepPoint& p = *std::prev(it);
  return p.value + p.slope * (t - p.t);
}

double PiecewiseLinear::MaxOver(Interval window) const {
  if (window.empty()) return 0.0;
  const Analysis& analysis = EnsureAnalysis();
  double best = std::max(
      ValueFromSweep(analysis, window.start.value()),
      ValueFromSweep(analysis, std::nextafter(window.end.value(),
                                              window.start.value())));
  // Sweep points sit exactly at the breakpoints, so the interior probes
  // read sweep values directly instead of re-searching per probe.
  const std::vector<SweepPoint>& sweep = analysis.sweep;
  for (auto it = std::upper_bound(
           sweep.begin(), sweep.end(), window.start.value(),
           [](double v, const SweepPoint& p) { return v < p.t; });
       it != sweep.end() && it->t < window.end.value(); ++it) {
    best = std::max(best, it->value);
  }
  return best;
}

double PiecewiseLinear::IntegralOver(Interval window) const {
  double total = 0.0;
  for (const LinearPiece& p : pieces_) total += p.IntegralOver(window);
  return total;
}

std::vector<ExcessRegion> PiecewiseLinear::RegionsAbove(double threshold) const {
  std::vector<ExcessRegion> regions;
  const std::vector<SweepPoint>& sweep = EnsureAnalysis().sweep;
  if (sweep.empty()) return regions;

  bool open = false;
  ExcessRegion current;
  double region_peak = 0.0;

  auto close_region = [&](double end) {
    current.window.end = Seconds{end};
    current.peak = region_peak;
    for (const LinearPiece& p : pieces_) {
      if (Overlaps(p.Support(), current.window)) current.contributors.push_back(p.tag);
    }
    std::sort(current.contributors.begin(), current.contributors.end());
    current.contributors.erase(
        std::unique(current.contributors.begin(), current.contributors.end()),
        current.contributors.end());
    regions.push_back(std::move(current));
    current = ExcessRegion{};
    region_peak = 0.0;
    open = false;
  };

  // Walk adjacent sweep points; the aggregate is linear on each open
  // segment, so the above-threshold sub-interval is solvable in closed
  // form from the segment's start value and slope.
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const double a = sweep[i].t;
    const double va = sweep[i].value;

    if (i + 1 == sweep.size()) {
      // Past the final breakpoint everything is zero; close any open region.
      if (open) close_region(a);
      break;
    }
    const double b = sweep[i + 1].t;
    // Left limit at b along this segment (value may jump AT b).
    const double vb = va + sweep[i].slope * (b - a);

    if (va > threshold) {
      if (!open) {
        open = true;
        current.window.start = Seconds{a};
      }
      region_peak = std::max(region_peak, va);
      if (vb <= threshold && b > a) {
        // Downward crossing inside (a, b): solve va + s*(x-a) = threshold.
        const double slope = (vb - va) / (b - a);
        const double x = (slope != 0.0) ? a + (threshold - va) / slope : b;
        close_region(std::min(std::max(x, a), b));
      }
    } else {
      // The aggregate may JUMP below the threshold exactly at `a` (a piece
      // ends there); a region that was open through the previous segment
      // closes at the jump point.
      if (open) close_region(a);
      if (vb > threshold && b > a) {
        // Upward crossing inside (a, b).
        const double slope = (vb - va) / (b - a);
        const double x = (slope != 0.0) ? a + (threshold - va) / slope : a;
        open = true;
        current.window.start = Seconds{std::min(std::max(x, a), b)};
        // The segment's sup inside the region is its left limit at b (the
        // slope must be positive to cross upward... it cannot be; upward
        // entry only happens at jumps, so this branch is defensive).
        region_peak = std::max(region_peak, vb);
      }
    }
  }
  return regions;
}

bool PiecewiseLinear::FitsUnder(const LinearPiece& candidate, double threshold) const {
  assert(candidate.Valid());
  if (candidate.height > threshold) return false;
  const Interval support = candidate.Support();
  if (support.empty()) return true;

  const Analysis& analysis = EnsureAnalysis();

  // Fast accept: every probe below is bounded by the aggregate's global
  // maximum plus the candidate's height (the candidate never exceeds its
  // height, the aggregate never exceeds its sweep maximum, and floating-
  // point rounding is monotone), so when even that bound fits there is
  // nothing to check.
  if (analysis.max_value + candidate.height <= threshold) return true;

  // Candidate+aggregate is linear between the union of all breakpoints, so
  // checking breakpoints within the support — plus the support edges and
  // the candidate's own plateau/drain boundary — is exact.  Sweep points
  // sit exactly at the breakpoints, so one binary search anchors an
  // in-order walk; edge probes interpolate from the walk's frontier
  // instead of re-searching, with the exact arithmetic ValueFromSweep and
  // LinearPiece::ValueAt would use.
  const std::vector<SweepPoint>& sweep = analysis.sweep;
  const std::size_t n = sweep.size();
  const double start_v = support.start.value();
  const double end_v = support.end.value();
  const double t1_v = candidate.t1.value();
  const auto interp = [](const SweepPoint& p, double t) {
    return p.value + p.slope * (t - p.t);
  };

  std::size_t i = static_cast<std::size_t>(
      std::upper_bound(sweep.begin(), sweep.end(), start_v,
                       [](double v, const SweepPoint& p) { return v < p.t; }) -
      sweep.begin());

  // Checks sweep points from i up to the first at or after `limit` against
  // the candidate's value `cand(t)`, leaving i there.  Each block entered
  // (at i, aligned or not) that ends before `limit` is first tested whole:
  // if the block's maximum plus the candidate's value at i fits, the rest
  // of the block is skipped — the candidate is non-increasing on its
  // support and rounding is monotone, so every skipped point fits too.
  // Otherwise the block is walked point by point.
  const auto walk = [&](double limit, auto cand) {
    while (i < n && sweep[i].t < limit) {
      const std::size_t block_end = std::min((i / kBlock + 1) * kBlock, n);
      if (sweep[block_end - 1].t < limit &&
          analysis.block_max[i / kBlock] + cand(sweep[i].t) <= threshold) {
        i = block_end;
        continue;
      }
      for (; i < block_end && sweep[i].t < limit; ++i) {
        if (sweep[i].value + cand(sweep[i].t) > threshold) return false;
      }
    }
    return true;
  };

  // Left edge of the support.
  {
    const double base = i == 0 ? 0.0 : interp(sweep[i - 1], start_v);
    if (base + candidate.ValueAt(support.start) > threshold) return false;
  }
  // Interior sweep points under the plateau (candidate == height there).
  if (!walk(std::min(t1_v, end_v),
            [&](double /*t*/) { return candidate.height; })) {
    return false;
  }
  // The plateau/drain boundary, which need not be a sweep point.
  if (t1_v > start_v && t1_v < end_v) {
    const SweepPoint* p = nullptr;
    if (i < n && sweep[i].t == t1_v) {
      p = &sweep[i];
    } else if (i != 0) {
      p = &sweep[i - 1];
    }
    const double base = p == nullptr ? 0.0 : interp(*p, t1_v);
    if (base + candidate.ValueAt(candidate.t1) > threshold) return false;
  }
  // Interior sweep points under the drain.
  const double drain = candidate.t2.value() - t1_v;
  if (drain > 0.0 &&
      !walk(end_v, [&](double t) {
        return candidate.height * (1.0 - (t - t1_v) / drain);
      })) {
    return false;
  }
  // Right edge (left limit at the support's end).
  {
    const double just_before_end = std::nextafter(end_v, start_v);
    const double base = i == 0 ? 0.0 : interp(sweep[i - 1], just_before_end);
    if (base + candidate.ValueAt(Seconds{just_before_end}) > threshold) {
      return false;
    }
  }
  return true;
}

}  // namespace vor::util
