#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace vor::util {

void Accumulator::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  // Clamp p into [0, 100]; the !(p >= 0) form also catches NaN.
  if (!(p >= 0.0)) {
    p = 0.0;
  } else if (p > 100.0) {
    p = 100.0;
  }
  if (values.size() == 1) return values.front();
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  Accumulator ax;
  Accumulator ay;
  for (const double v : x) ax.Add(v);
  for (const double v : y) ay.Add(v);
  double cov = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    cov += (x[i] - ax.mean()) * (y[i] - ay.mean());
  }
  cov /= static_cast<double>(x.size() - 1);
  const double denom = ax.stddev() * ay.stddev();
  return denom > 0.0 ? cov / denom : 0.0;
}

}  // namespace vor::util
