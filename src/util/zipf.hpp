// Zipf-like file popularity, in the Dan & Sitaram parameterisation the
// paper adopts: P(rank i) proportional to (1/i)^(1-alpha) over ranks
// 1..n.  alpha = 0 is the classic (most skewed) Zipf distribution;
// alpha = 1 is uniform; the paper's "commercial video rental" setting is
// alpha = 0.271.  Larger alpha means a *less* biased access pattern,
// matching the paper's wording.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace vor::util {

class ZipfDistribution {
 public:
  /// n: number of ranks (videos).  alpha in [0, 1].
  ZipfDistribution(std::size_t n, double alpha);

  /// Probability mass of rank i (0-based index, most popular first).
  [[nodiscard]] double pmf(std::size_t i) const;

  /// Draw a 0-based rank.  O(1) via Walker alias sampling.
  [[nodiscard]] std::size_t Sample(Rng& rng) const;

  [[nodiscard]] std::size_t size() const { return pmf_.size(); }
  [[nodiscard]] double alpha() const { return alpha_; }

 private:
  void BuildAliasTable();

  double alpha_;
  std::vector<double> pmf_;
  // Walker alias structures.
  std::vector<double> alias_prob_;
  std::vector<std::uint32_t> alias_idx_;
};

}  // namespace vor::util
