#include "util/piecewise.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace vor::util {
namespace {

LinearPiece Trapezoid(double t0, double t1, double t2, double h,
                      std::uint64_t tag = 0) {
  return LinearPiece{Seconds{t0}, Seconds{t1}, Seconds{t2}, h, tag};
}

Interval Iv(double a, double b) { return Interval{Seconds{a}, Seconds{b}}; }

TEST(LinearPieceTest, ValueAtPlateauAndDrain) {
  const LinearPiece p = Trapezoid(10, 20, 30, 100);
  EXPECT_DOUBLE_EQ(p.ValueAt(Seconds{5}), 0.0);
  EXPECT_DOUBLE_EQ(p.ValueAt(Seconds{10}), 100.0);
  EXPECT_DOUBLE_EQ(p.ValueAt(Seconds{15}), 100.0);
  EXPECT_DOUBLE_EQ(p.ValueAt(Seconds{20}), 100.0);
  EXPECT_DOUBLE_EQ(p.ValueAt(Seconds{25}), 50.0);
  EXPECT_DOUBLE_EQ(p.ValueAt(Seconds{30}), 0.0);
  EXPECT_DOUBLE_EQ(p.ValueAt(Seconds{35}), 0.0);
}

TEST(LinearPieceTest, RectangleWithoutDrain) {
  const LinearPiece p = Trapezoid(0, 10, 10, 42);
  EXPECT_DOUBLE_EQ(p.ValueAt(Seconds{0}), 42.0);
  EXPECT_DOUBLE_EQ(p.ValueAt(Seconds{9.999}), 42.0);
  EXPECT_DOUBLE_EQ(p.ValueAt(Seconds{10}), 0.0);
}

TEST(LinearPieceTest, IntegralOfFullSupport) {
  const LinearPiece p = Trapezoid(0, 10, 20, 100);
  // Plateau: 10 * 100, drain triangle: 10 * 100 / 2.
  EXPECT_DOUBLE_EQ(p.IntegralOver(Iv(0, 20)), 1500.0);
  EXPECT_DOUBLE_EQ(p.IntegralOver(Iv(-100, 100)), 1500.0);
}

TEST(LinearPieceTest, IntegralOfPartialWindows) {
  const LinearPiece p = Trapezoid(0, 10, 20, 100);
  EXPECT_DOUBLE_EQ(p.IntegralOver(Iv(0, 5)), 500.0);
  EXPECT_DOUBLE_EQ(p.IntegralOver(Iv(10, 15)), 0.5 * (100 + 50) * 5);
  EXPECT_DOUBLE_EQ(p.IntegralOver(Iv(5, 15)), 500.0 + 375.0);
  EXPECT_DOUBLE_EQ(p.IntegralOver(Iv(25, 30)), 0.0);
}

TEST(PiecewiseLinearTest, SumOfTwoPieces) {
  PiecewiseLinear f;
  f.Add(Trapezoid(0, 10, 20, 100, 1));
  f.Add(Trapezoid(5, 15, 25, 50, 2));
  EXPECT_DOUBLE_EQ(f.ValueAt(Seconds{7}), 150.0);
  EXPECT_DOUBLE_EQ(f.ValueAt(Seconds{12}), 80.0 + 50.0);
  EXPECT_DOUBLE_EQ(f.Max(), 150.0);
}

TEST(PiecewiseLinearTest, RemoveByTag) {
  PiecewiseLinear f;
  f.Add(Trapezoid(0, 10, 20, 100, 7));
  f.Add(Trapezoid(0, 10, 20, 50, 8));
  EXPECT_EQ(f.RemoveByTag(7), 1u);
  EXPECT_DOUBLE_EQ(f.ValueAt(Seconds{5}), 50.0);
  EXPECT_EQ(f.RemoveByTag(7), 0u);

  // Several pieces per tag (a file's streams): sorted insertion keeps
  // ascending tags with ties in insertion order, and removal takes them
  // all.
  PiecewiseLinear g;
  g.InsertSortedByTag(Trapezoid(0, 10, 10, 5, 1));
  g.InsertSortedByTag(Trapezoid(0, 10, 10, 3, 2));
  g.InsertSortedByTag(Trapezoid(0, 10, 10, 2, 1));
  ASSERT_EQ(g.pieces().size(), 3u);
  EXPECT_DOUBLE_EQ(g.pieces()[0].height, 5.0);
  EXPECT_DOUBLE_EQ(g.pieces()[1].height, 2.0);
  EXPECT_EQ(g.pieces()[2].tag, 2u);
  EXPECT_EQ(g.RemoveByTag(1), 2u);
  EXPECT_DOUBLE_EQ(g.ValueAt(Seconds{5}), 3.0);
}

TEST(PiecewiseLinearTest, MaxOverWindow) {
  PiecewiseLinear f;
  f.Add(Trapezoid(0, 10, 20, 100));
  EXPECT_DOUBLE_EQ(f.MaxOver(Iv(12, 18)), f.ValueAt(Seconds{12}));
  EXPECT_DOUBLE_EQ(f.MaxOver(Iv(0, 5)), 100.0);
  EXPECT_DOUBLE_EQ(f.MaxOver(Iv(30, 40)), 0.0);

  // Overlapping rectangles (a step function).
  PiecewiseLinear steps;
  steps.Add(Trapezoid(0, 10, 10, 5));
  steps.Add(Trapezoid(5, 15, 15, 3));
  EXPECT_DOUBLE_EQ(steps.Max(), 8.0);
  EXPECT_DOUBLE_EQ(steps.MaxOver(Iv(0, 4)), 5.0);
  EXPECT_DOUBLE_EQ(steps.MaxOver(Iv(11, 20)), 3.0);
  EXPECT_DOUBLE_EQ(steps.ValueAt(Seconds{12}), 3.0);
}

TEST(PiecewiseLinearTest, RegionsAboveFindsExactCrossings) {
  PiecewiseLinear f;
  f.Add(Trapezoid(0, 10, 20, 100, 1));
  f.Add(Trapezoid(5, 10, 10, 50, 2));  // rectangle on [5, 10)
  // total: 100 on [0,5), 150 on [5,10), drains 100->0 on [10,20)
  const auto regions = f.RegionsAbove(120.0);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_DOUBLE_EQ(regions[0].window.start.value(), 5.0);
  EXPECT_DOUBLE_EQ(regions[0].window.end.value(), 10.0);
  EXPECT_DOUBLE_EQ(regions[0].peak, 150.0);
  EXPECT_EQ(regions[0].contributors.size(), 2u);
}

TEST(PiecewiseLinearTest, RegionsAboveSolvesMidSegmentCrossing) {
  PiecewiseLinear f;
  f.Add(Trapezoid(0, 10, 20, 100));
  // Drain crosses 40 at t = 10 + (100-40)/100*10 = 16.
  const auto regions = f.RegionsAbove(40.0);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_DOUBLE_EQ(regions[0].window.start.value(), 0.0);
  EXPECT_NEAR(regions[0].window.end.value(), 16.0, 1e-9);
}

TEST(PiecewiseLinearTest, NoRegionsWhenUnderThreshold) {
  PiecewiseLinear f;
  f.Add(Trapezoid(0, 10, 20, 100));
  EXPECT_TRUE(f.RegionsAbove(100.0).empty());  // strictly above
  EXPECT_TRUE(f.RegionsAbove(150.0).empty());
}

TEST(PiecewiseLinearTest, DisjointRegions) {
  PiecewiseLinear f;
  f.Add(Trapezoid(0, 5, 5, 100, 1));
  f.Add(Trapezoid(10, 15, 15, 100, 2));
  const auto regions = f.RegionsAbove(50.0);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_DOUBLE_EQ(regions[0].window.start.value(), 0.0);
  EXPECT_DOUBLE_EQ(regions[0].window.end.value(), 5.0);
  EXPECT_DOUBLE_EQ(regions[1].window.start.value(), 10.0);
  EXPECT_DOUBLE_EQ(regions[1].window.end.value(), 15.0);
  EXPECT_EQ(regions[0].contributors, std::vector<std::uint64_t>{1});
  EXPECT_EQ(regions[1].contributors, std::vector<std::uint64_t>{2});
  // Rectangles are half-open: full height at the start, gone at the end.
  EXPECT_DOUBLE_EQ(f.ValueAt(Seconds{0}), 100.0);
  EXPECT_DOUBLE_EQ(f.ValueAt(Seconds{5}), 0.0);

  // Abutting rectangles form one region: the aggregate never dips where
  // one ends and the next starts.
  PiecewiseLinear abutting;
  abutting.Add(Trapezoid(0, 5, 5, 100, 1));
  abutting.Add(Trapezoid(5, 10, 10, 100, 2));
  const auto joined = abutting.RegionsAbove(50.0);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_DOUBLE_EQ(joined[0].window.start.value(), 0.0);
  EXPECT_DOUBLE_EQ(joined[0].window.end.value(), 10.0);
  EXPECT_EQ(joined[0].contributors, (std::vector<std::uint64_t>{1, 2}));
}

TEST(PiecewiseLinearTest, IntegralSumsPieces) {
  PiecewiseLinear f;
  f.Add(Trapezoid(0, 10, 20, 100));
  f.Add(Trapezoid(0, 10, 20, 50));
  EXPECT_DOUBLE_EQ(f.IntegralOver(Iv(0, 20)), 1500.0 + 750.0);
}

TEST(PiecewiseLinearTest, FitsUnderRespectsThreshold) {
  PiecewiseLinear f;
  f.Add(Trapezoid(0, 10, 20, 60));
  EXPECT_TRUE(f.FitsUnder(Trapezoid(0, 10, 20, 40), 100.0));
  EXPECT_FALSE(f.FitsUnder(Trapezoid(0, 10, 20, 41), 100.0));
  // Candidate only overlapping the drain can be taller.
  EXPECT_TRUE(f.FitsUnder(Trapezoid(15, 18, 20, 69), 100.0));
  EXPECT_FALSE(f.FitsUnder(Trapezoid(9, 18, 20, 41), 100.0));
  // Candidate alone above threshold.
  EXPECT_FALSE(f.FitsUnder(Trapezoid(100, 110, 120, 101), 100.0));

  // Rectangles (streams): exactly touching the threshold fits, one more
  // unit does not, and a rectangle starting where another ends sees none
  // of it.
  PiecewiseLinear link;
  link.Add(Trapezoid(0, 10, 10, 6));
  EXPECT_TRUE(link.FitsUnder(Trapezoid(0, 10, 10, 4), 10.0));
  EXPECT_FALSE(link.FitsUnder(Trapezoid(0, 10, 10, 5), 10.0));
  EXPECT_TRUE(link.FitsUnder(Trapezoid(10, 20, 20, 10), 10.0));
  EXPECT_FALSE(link.FitsUnder(Trapezoid(9, 20, 20, 5), 10.0));
}

TEST(PiecewiseLinearTest, EmptyTimelineBehaviour) {
  PiecewiseLinear f;
  EXPECT_DOUBLE_EQ(f.ValueAt(Seconds{0}), 0.0);
  EXPECT_DOUBLE_EQ(f.Max(), 0.0);
  EXPECT_TRUE(f.RegionsAbove(0.0).empty());
  EXPECT_TRUE(f.FitsUnder(Trapezoid(0, 1, 2, 5), 10.0));
  // A zero-width piece adds nothing.
  f.Add(Trapezoid(5, 5, 5, 100));
  EXPECT_DOUBLE_EQ(f.Max(), 0.0);
  EXPECT_DOUBLE_EQ(f.ValueAt(Seconds{5}), 0.0);
  EXPECT_TRUE(f.FitsUnder(Trapezoid(4, 6, 6, 10), 10.0));
}

/// One property case: an RNG seed, and whether to draw tie-heavy inputs —
/// times on a coarse grid so many events share an instant, rectangles with
/// t1 == t2, zero plateaus, and enough pieces that the sweep spans several
/// FitsUnder skip blocks.
struct PropertyCase {
  int seed = 0;
  bool ties = false;
};

// ctest names each case by this printed value, so plain cases keep their
// bare-seed names.
void PrintTo(const PropertyCase& c, std::ostream* os) {
  *os << (c.ties ? "ties" : "") << c.seed;
}

std::vector<PropertyCase> Cases(int plain, int ties) {
  std::vector<PropertyCase> cases;
  for (int seed = 1; seed <= plain; ++seed) cases.push_back({seed, false});
  for (int seed = 1; seed <= ties; ++seed) cases.push_back({seed, true});
  return cases;
}

/// A tie-heavy piece: every time on a 0.5 s grid within [0, 50], about a
/// quarter rectangles (t1 == t2), some with no plateau (t0 == t1).
LinearPiece TiePiece(Rng& rng, double max_height, std::uint64_t tag = 0) {
  const auto grid = [&rng](int steps) {
    return 0.5 * static_cast<double>(rng.NextBounded(steps + 1));
  };
  const double t0 = grid(60);
  const double t1 = rng.NextBounded(5) == 0 ? t0 : t0 + grid(24);
  const double t2 = rng.NextBounded(4) == 0 ? t1 : t1 + 0.5 + grid(16);
  return Trapezoid(t0, t1, t2, rng.Uniform(1.0, max_height), tag);
}

/// Property: a timeline with a random tag subset removed answers every
/// query bit-identically to a fresh timeline of the surviving pieces.
void ExpectDerivedMatchesFresh(const PiecewiseLinear& f, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> dropped(f.pieces().size());
  for (std::uint8_t& d : dropped) d = rng.NextBounded(3) == 0 ? 1 : 0;
  const PiecewiseLinear derived = f.WithoutTagsIf(
      [&dropped](std::uint64_t tag) { return dropped[tag] != 0; });
  PiecewiseLinear fresh;
  for (const LinearPiece& p : f.pieces()) {
    if (dropped[p.tag] == 0) fresh.Add(p);
  }
  // A moved derived timeline carries its analysis along, and a derived
  // timeline (which keeps no events) still derives correctly.
  PiecewiseLinear twin = f.WithoutTagsIf(
      [&dropped](std::uint64_t tag) { return dropped[tag] != 0; });
  const PiecewiseLinear moved = std::move(twin);
  const PiecewiseLinear rederived =
      derived.WithoutTagsIf([](std::uint64_t /*tag*/) { return false; });
  for (const PiecewiseLinear* got : {&derived, &moved, &rederived}) {
    ASSERT_EQ(got->pieces().size(), fresh.pieces().size());
    EXPECT_EQ(got->Max(), fresh.Max());
    for (const double threshold :
         {0.0, 0.3 * fresh.Max(), 0.7 * fresh.Max(), fresh.Max()}) {
      const auto want = fresh.RegionsAbove(threshold);
      const auto have = got->RegionsAbove(threshold);
      ASSERT_EQ(have.size(), want.size()) << "threshold " << threshold;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(have[i].window.start.value(), want[i].window.start.value());
        EXPECT_EQ(have[i].window.end.value(), want[i].window.end.value());
        EXPECT_EQ(have[i].peak, want[i].peak);
        EXPECT_EQ(have[i].contributors, want[i].contributors);
      }
    }
    for (int k = 0; k < 20; ++k) {
      const LinearPiece probe = TiePiece(rng, 40.0);
      EXPECT_EQ(got->MaxOver(probe.Support()), fresh.MaxOver(probe.Support()));
      const double critical = fresh.MaxOver(probe.Support()) + probe.height;
      for (const double threshold :
           {critical, std::nextafter(critical, 0.0), rng.Uniform(0.0, critical)}) {
        EXPECT_EQ(got->FitsUnder(probe, threshold),
                  fresh.FitsUnder(probe, threshold));
      }
    }
  }
}

/// Property: RegionsAbove agrees with dense sampling on random piece sets,
/// and removing a random tag subset matches a fresh build.
class PiecewiseRandomProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(PiecewiseRandomProperty, RegionsMatchDenseSampling) {
  const PropertyCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.seed) + (c.ties ? 1000 : 0));
  PiecewiseLinear f;
  const int pieces = c.ties ? 60 + static_cast<int>(rng.NextBounded(60))
                            : 1 + static_cast<int>(rng.NextBounded(8));
  for (int i = 0; i < pieces; ++i) {
    if (c.ties) {
      f.Add(TiePiece(rng, 20.0, static_cast<std::uint64_t>(i)));
      continue;
    }
    const double t0 = rng.Uniform(0.0, 50.0);
    const double t1 = t0 + rng.Uniform(0.0, 30.0);
    const double t2 = t1 + rng.Uniform(0.0, 20.0);
    f.Add(Trapezoid(t0, t1, t2, rng.Uniform(1.0, 100.0),
                    static_cast<std::uint64_t>(i)));
  }
  const double threshold =
      c.ties ? rng.Uniform(0.2, 0.9) * f.Max() : rng.Uniform(10.0, 150.0);
  const auto regions = f.RegionsAbove(threshold);

  auto inside_region = [&](double t) {
    return std::any_of(regions.begin(), regions.end(), [&](const auto& r) {
      return t >= r.window.start.value() && t < r.window.end.value();
    });
  };
  // Sample densely; wherever the sampled value clearly exceeds (or falls
  // below) the threshold, the region list must agree.
  for (double t = -1.0; t < 105.0; t += 0.0837) {
    const double v = f.ValueAt(Seconds{t});
    if (v > threshold + 1e-6) {
      EXPECT_TRUE(inside_region(t)) << "t=" << t << " v=" << v;
    } else if (v < threshold - 1e-6) {
      EXPECT_FALSE(inside_region(t)) << "t=" << t << " v=" << v;
    }
  }

  ExpectDerivedMatchesFresh(f, static_cast<std::uint64_t>(c.seed) * 31 + 7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PiecewiseRandomProperty,
                         ::testing::ValuesIn(Cases(20, 20)));

/// Property: on rectangle-only sets (step functions, the shape of a
/// stream key's timeline in storage::Load), RegionsAbove matches dense
/// sampling.
class StepRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(StepRandomProperty, RegionsMatchDenseSampling) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  PiecewiseLinear f;
  const int pieces = 1 + static_cast<int>(rng.NextBounded(10));
  for (int i = 0; i < pieces; ++i) {
    const double a = rng.Uniform(0.0, 50.0);
    const double b = a + rng.Uniform(0.1, 30.0);
    f.Add(Trapezoid(a, b, b, rng.Uniform(1.0, 20.0),
                    static_cast<std::uint64_t>(i)));
  }
  const double threshold = rng.Uniform(5.0, 60.0);
  const auto regions = f.RegionsAbove(threshold);
  auto inside = [&](double x) {
    return std::any_of(regions.begin(), regions.end(), [&](const auto& r) {
      return x >= r.window.start.value() && x < r.window.end.value();
    });
  };
  for (double x = -1.0; x < 85.0; x += 0.0719) {
    const double v = f.ValueAt(Seconds{x});
    if (v > threshold + 1e-9) {
      EXPECT_TRUE(inside(x)) << x;
    } else if (v < threshold - 1e-9) {
      EXPECT_FALSE(inside(x)) << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StepRandomProperty, ::testing::Range(1, 16));

/// Property: FitsUnder is exact — accepting iff dense sampling accepts.
/// Tie-heavy cases span several skip blocks and put the threshold near
/// the critical value, so blocks are both skipped and walked.
class FitsUnderProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(FitsUnderProperty, MatchesDenseSampling) {
  const PropertyCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.seed) * 7919 + (c.ties ? 1 : 0));
  PiecewiseLinear f;
  const int pieces = c.ties ? 60 + static_cast<int>(rng.NextBounded(60))
                            : static_cast<int>(rng.NextBounded(6));
  for (int i = 0; i < pieces; ++i) {
    if (c.ties) {
      f.Add(TiePiece(rng, 20.0));
      continue;
    }
    const double t0 = rng.Uniform(0.0, 40.0);
    const double t1 = t0 + rng.Uniform(0.0, 20.0);
    const double t2 = t1 + rng.Uniform(0.1, 15.0);
    f.Add(Trapezoid(t0, t1, t2, rng.Uniform(1.0, 60.0)));
  }
  std::vector<std::pair<LinearPiece, double>> probes;
  if (c.ties) {
    // Candidates with plateaus and drains long enough to cover whole skip
    // blocks, tried around and exactly at their critical threshold.
    for (int k = 0; k < 20; ++k) {
      const double t0 = 0.5 * static_cast<double>(rng.NextBounded(61));
      const double t1 = t0 + 0.5 * static_cast<double>(rng.NextBounded(25));
      const double t2 = t1 + 0.5 + 0.5 * static_cast<double>(rng.NextBounded(61));
      const LinearPiece candidate = Trapezoid(t0, t1, t2, rng.Uniform(1.0, 20.0));
      const double critical = f.MaxOver(candidate.Support()) + candidate.height;
      probes.emplace_back(candidate, critical * rng.Uniform(0.9, 1.1));
      probes.emplace_back(candidate, critical);
      probes.emplace_back(candidate, std::nextafter(critical, 0.0));
    }
  } else {
    const double t0 = rng.Uniform(0.0, 40.0);
    const double t1 = t0 + rng.Uniform(0.1, 20.0);
    const double t2 = t1 + rng.Uniform(0.1, 15.0);
    const LinearPiece candidate = Trapezoid(t0, t1, t2, rng.Uniform(1.0, 60.0));
    probes.emplace_back(candidate, rng.Uniform(30.0, 120.0));
  }

  for (const auto& [candidate, threshold] : probes) {
    bool sampled_ok = true;
    for (double t = candidate.t0.value(); t < candidate.t2.value();
         t += 0.0531) {
      if (f.ValueAt(Seconds{t}) + candidate.ValueAt(Seconds{t}) >
          threshold + 1e-6) {
        sampled_ok = false;
        break;
      }
    }
    const bool exact_ok = f.FitsUnder(candidate, threshold);
    // The exact test may only be stricter than coarse sampling, never more
    // permissive where sampling found a violation.
    if (!sampled_ok) {
      EXPECT_FALSE(exact_ok);
    }
    if (exact_ok) {
      EXPECT_TRUE(sampled_ok);
    }
  }
  if (!c.ties) return;

  // Block skipping is exact: the same pieces behind 1..16 leading
  // zero-height instants (which shift every sweep point by that many slots
  // without changing any value) give every answer unchanged, whichever
  // points now share a skip block.
  for (int shift = 1; shift <= 16; ++shift) {
    PiecewiseLinear shifted;
    for (int k = 0; k < shift; ++k) {
      const double t = -100.0 + k;
      shifted.Add(Trapezoid(t, t, t, 0.0));
    }
    for (const LinearPiece& p : f.pieces()) shifted.Add(p);
    for (const auto& [candidate, threshold] : probes) {
      EXPECT_EQ(shifted.FitsUnder(candidate, threshold),
                f.FitsUnder(candidate, threshold))
          << "shift " << shift << " threshold " << threshold;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FitsUnderProperty,
                         ::testing::ValuesIn(Cases(30, 20)));

}  // namespace
}  // namespace vor::util
