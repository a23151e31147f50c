#include "util/zipf.hpp"

#include <cassert>
#include <cmath>

namespace vor::util {

ZipfDistribution::ZipfDistribution(std::size_t n, double alpha) : alpha_(alpha) {
  assert(n > 0);
  assert(alpha >= 0.0 && alpha <= 1.0);
  pmf_.resize(n);
  const double exponent = 1.0 - alpha;
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    pmf_[i] = std::pow(1.0 / static_cast<double>(i + 1), exponent);
    total += pmf_[i];
  }
  for (double& p : pmf_) p /= total;
  BuildAliasTable();
}

double ZipfDistribution::pmf(std::size_t i) const {
  assert(i < pmf_.size());
  return pmf_[i];
}

void ZipfDistribution::BuildAliasTable() {
  // Walker/Vose alias method: O(n) setup, O(1) sampling.
  const std::size_t n = pmf_.size();
  alias_prob_.assign(n, 0.0);
  alias_idx_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) scaled[i] = pmf_[i] * static_cast<double>(n);

  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    alias_prob_[s] = scaled[s];
    alias_idx_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (const std::uint32_t i : large) alias_prob_[i] = 1.0;
  for (const std::uint32_t i : small) alias_prob_[i] = 1.0;  // rounding leftovers
}

std::size_t ZipfDistribution::Sample(Rng& rng) const {
  const std::size_t column = rng.NextBounded(pmf_.size());
  return rng.NextDouble() < alias_prob_[column]
             ? column
             : static_cast<std::size_t>(alias_idx_[column]);
}

}  // namespace vor::util
