#include "util/interval.hpp"

#include <gtest/gtest.h>

namespace vor::util {
namespace {

Interval Iv(double a, double b) { return Interval{Seconds{a}, Seconds{b}}; }

TEST(IntervalTest, LengthAndEmpty) {
  EXPECT_DOUBLE_EQ(Iv(1, 4).length().value(), 3.0);
  EXPECT_FALSE(Iv(1, 4).empty());
  EXPECT_TRUE(Iv(4, 4).empty());
  EXPECT_TRUE(Iv(5, 4).empty());
  EXPECT_DOUBLE_EQ(Iv(5, 4).length().value(), 0.0);
}

TEST(IntervalTest, ContainsIsHalfOpen) {
  const Interval iv = Iv(1, 4);
  EXPECT_TRUE(iv.contains(Seconds{1.0}));
  EXPECT_TRUE(iv.contains(Seconds{3.999}));
  EXPECT_FALSE(iv.contains(Seconds{4.0}));
  EXPECT_FALSE(iv.contains(Seconds{0.999}));
}

TEST(IntervalTest, Overlaps) {
  EXPECT_TRUE(Overlaps(Iv(0, 2), Iv(1, 3)));
  EXPECT_TRUE(Overlaps(Iv(1, 3), Iv(0, 2)));
  EXPECT_FALSE(Overlaps(Iv(0, 1), Iv(1, 2)));  // touching is not overlap
  EXPECT_FALSE(Overlaps(Iv(0, 1), Iv(2, 3)));
  EXPECT_TRUE(Overlaps(Iv(0, 10), Iv(4, 5)));  // containment
}

TEST(IntervalTest, IntersectProducesOverlap) {
  const Interval x = Intersect(Iv(0, 5), Iv(3, 8));
  EXPECT_DOUBLE_EQ(x.start.value(), 3.0);
  EXPECT_DOUBLE_EQ(x.end.value(), 5.0);
}

TEST(IntervalTest, IntersectDisjointIsEmpty) {
  EXPECT_TRUE(Intersect(Iv(0, 1), Iv(2, 3)).empty());
  EXPECT_TRUE(Intersect(Iv(0, 1), Iv(1, 2)).empty());
}

TEST(IntervalTest, IntersectionIsCommutativeProperty) {
  for (int a = 0; a < 6; ++a) {
    for (int b = a; b < 6; ++b) {
      for (int c = 0; c < 6; ++c) {
        for (int d = c; d < 6; ++d) {
          const Interval x = Iv(a, b);
          const Interval y = Iv(c, d);
          EXPECT_EQ(Intersect(x, y).length().value(),
                    Intersect(y, x).length().value());
          EXPECT_EQ(Overlaps(x, y), Overlaps(y, x));
        }
      }
    }
  }
}

}  // namespace
}  // namespace vor::util
