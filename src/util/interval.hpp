// Closed-open time intervals [start, end) in cycle seconds.
#pragma once

#include <algorithm>
#include <cassert>

#include "util/units.hpp"

namespace vor::util {

/// A time interval within the scheduling cycle.  Empty when end <= start.
struct Interval {
  Seconds start{0.0};
  Seconds end{0.0};

  [[nodiscard]] constexpr Seconds length() const {
    return end > start ? end - start : Seconds{0.0};
  }
  [[nodiscard]] constexpr bool empty() const { return end <= start; }

  [[nodiscard]] constexpr bool contains(Seconds t) const {
    return t >= start && t < end;
  }

  friend constexpr bool operator==(const Interval&, const Interval&) = default;
};

/// True when the two intervals share a positive-length overlap.
[[nodiscard]] constexpr bool Overlaps(const Interval& a, const Interval& b) {
  return std::max(a.start.value(), b.start.value()) <
         std::min(a.end.value(), b.end.value());
}

/// Intersection of two intervals; empty interval when disjoint.
[[nodiscard]] constexpr Interval Intersect(const Interval& a, const Interval& b) {
  const Seconds s{std::max(a.start.value(), b.start.value())};
  const Seconds e{std::min(a.end.value(), b.end.value())};
  return e > s ? Interval{s, e} : Interval{s, s};
}

}  // namespace vor::util
