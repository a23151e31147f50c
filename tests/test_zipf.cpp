#include "util/zipf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace vor::util {
namespace {

/// The CDF of pmf(), for the inversion sampler that is the alias
/// sampler's reference.
std::vector<double> Cdf(const ZipfDistribution& zipf) {
  std::vector<double> cdf(zipf.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < cdf.size(); ++i) cdf[i] = acc += zipf.pmf(i);
  cdf.back() = 1.0;  // guard against rounding drift
  return cdf;
}

/// Draws a 0-based rank by CDF inversion (O(log n)).
std::size_t SampleByCdf(const std::vector<double>& cdf, Rng& rng) {
  return static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), rng.NextDouble()) -
      cdf.begin());
}

/// Mass carried by the top k ranks.
double HeadMass(const ZipfDistribution& zipf, std::size_t k) {
  double mass = 0.0;
  for (std::size_t i = 0; i < k; ++i) mass += zipf.pmf(i);
  return mass;
}

TEST(ZipfTest, PmfSumsToOne) {
  for (const double alpha : {0.0, 0.1, 0.271, 0.5, 0.7, 1.0}) {
    ZipfDistribution zipf(500, alpha);
    EXPECT_NEAR(HeadMass(zipf, zipf.size()), 1.0, 1e-12) << "alpha=" << alpha;
  }
}

TEST(ZipfTest, PmfIsNonIncreasing) {
  ZipfDistribution zipf(100, 0.271);
  for (std::size_t i = 1; i < zipf.size(); ++i) {
    EXPECT_LE(zipf.pmf(i), zipf.pmf(i - 1));
  }
}

TEST(ZipfTest, AlphaOneIsUniform) {
  ZipfDistribution zipf(50, 1.0);
  for (std::size_t i = 0; i < zipf.size(); ++i) {
    EXPECT_NEAR(zipf.pmf(i), 1.0 / 50.0, 1e-12);
  }
}

TEST(ZipfTest, LargerAlphaIsLessSkewed) {
  // The paper: "Larger alpha implies a less biased distribution."
  const ZipfDistribution skewed(500, 0.1);
  const ZipfDistribution medium(500, 0.5);
  const ZipfDistribution flat(500, 0.9);
  EXPECT_GT(HeadMass(skewed, 50), HeadMass(medium, 50));
  EXPECT_GT(HeadMass(medium, 50), HeadMass(flat, 50));
}

TEST(ZipfTest, PaperAlphaConcentratesMass) {
  // alpha = 0.271 (the commercial video-rental fit) puts most of the mass
  // on a small head of the 500-title catalog.
  ZipfDistribution zipf(500, 0.271);
  EXPECT_GT(HeadMass(zipf, 100), 0.55);
  EXPECT_LT(HeadMass(zipf, 100), 0.95);
}

TEST(ZipfTest, AliasSamplerMatchesPmf) {
  ZipfDistribution zipf(50, 0.271);
  Rng rng(17);
  std::vector<double> counts(50, 0.0);
  const int n = 400000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_NEAR(counts[i] / n, zipf.pmf(i), 0.005) << "rank " << i;
  }
}

TEST(ZipfTest, InversionSamplerMatchesPmf) {
  ZipfDistribution zipf(50, 0.5);
  const std::vector<double> cdf = Cdf(zipf);
  Rng rng(18);
  std::vector<double> counts(50, 0.0);
  const int n = 400000;
  for (int i = 0; i < n; ++i) ++counts[SampleByCdf(cdf, rng)];
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_NEAR(counts[i] / n, zipf.pmf(i), 0.005) << "rank " << i;
  }
}

TEST(ZipfTest, SamplersAgreeOnHeadMass) {
  ZipfDistribution zipf(200, 0.271);
  const std::vector<double> cdf = Cdf(zipf);
  Rng rng_a(5);
  Rng rng_b(6);
  const int n = 200000;
  int head_a = 0;
  int head_b = 0;
  for (int i = 0; i < n; ++i) {
    head_a += zipf.Sample(rng_a) < 20 ? 1 : 0;
    head_b += SampleByCdf(cdf, rng_b) < 20 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(head_a) / n,
              static_cast<double>(head_b) / n, 0.01);
}

TEST(ZipfTest, SingleRankAlwaysSampled) {
  ZipfDistribution zipf(1, 0.271);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

/// Property sweep: alias and inversion samplers produce the same
/// distribution across the paper's alpha values.
class ZipfAlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfAlphaSweep, ChiSquareCloseAcrossSamplers) {
  const double alpha = GetParam();
  ZipfDistribution zipf(100, alpha);
  Rng rng(911);
  std::vector<double> counts(100, 0.0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  double chi2 = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    const double expected = zipf.pmf(i) * n;
    if (expected > 5.0) {
      chi2 += (counts[i] - expected) * (counts[i] - expected) / expected;
    }
  }
  // ~99 dof; 160 is far beyond the 99.9th percentile only for broken
  // samplers.
  EXPECT_LT(chi2, 160.0);
}

INSTANTIATE_TEST_SUITE_P(PaperAlphas, ZipfAlphaSweep,
                         ::testing::Values(0.1, 0.271, 0.5, 0.7));

}  // namespace
}  // namespace vor::util
