// Summary statistics for experiment outputs.
#pragma once

#include <cstddef>
#include <vector>

namespace vor::util {

/// Streaming accumulator (Welford) for mean/variance plus min/max.
class Accumulator {
 public:
  void Add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double variance() const;  // sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile of a sample (linear interpolation between order statistics).
/// p in [0, 100].  The input is copied and sorted.
[[nodiscard]] double Percentile(std::vector<double> values, double p);

/// Pearson correlation of paired samples; returns 0 for degenerate input.
[[nodiscard]] double PearsonCorrelation(const std::vector<double>& x,
                                        const std::vector<double>& y);

}  // namespace vor::util
