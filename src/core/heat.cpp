#include "core/heat.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vor::core {

std::string ToString(HeatMetric metric) {
  switch (metric) {
    case HeatMetric::kImprovedLength:
      return "M1-improved-length";
    case HeatMetric::kLengthPerCost:
      return "M2-length-per-cost";
    case HeatMetric::kTimeSpace:
      return "M3-time-space";
    case HeatMetric::kTimeSpacePerCost:
      return "M4-time-space-per-cost";
  }
  return "unknown";
}

double ImprovedLength(const Residency& c, media::VideoId video,
                      const OverflowWindow& overflow,
                      const CostModel& cost_model) {
  const util::LinearPiece piece = cost_model.OccupancyPiece(c, video, 0);
  return util::Intersect(piece.Support(), overflow.window).length().value();
}

double TimeSpaceImprovement(const Residency& c, media::VideoId video,
                            const OverflowWindow& overflow,
                            const CostModel& cost_model) {
  const util::LinearPiece piece = cost_model.OccupancyPiece(c, video, 0);
  return piece.IntegralOver(
      util::Intersect(piece.Support(), overflow.window));
}

double Improvement(HeatMetric metric, double improvement_length,
                   double improvement_time_space) {
  return metric == HeatMetric::kImprovedLength ||
                 metric == HeatMetric::kLengthPerCost
             ? improvement_length
             : improvement_time_space;
}

double ComputeHeat(HeatMetric metric, double improvement_length,
                   double improvement_time_space, double overhead_cost) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double improvement =
      Improvement(metric, improvement_length, improvement_time_space);
  if (improvement <= 0.0) return -kInf;
  if (overhead_cost <= 0.0) return kInf;
  switch (metric) {
    case HeatMetric::kImprovedLength:
    case HeatMetric::kTimeSpace:
      return improvement;
    case HeatMetric::kLengthPerCost:
    case HeatMetric::kTimeSpacePerCost:
      return improvement / overhead_cost;
  }
  return -kInf;
}

double OverheadLimit(HeatMetric metric, double improvement_length,
                     double improvement_time_space, double heat) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (heat == -kInf) return kInf;
  const double improvement =
      Improvement(metric, improvement_length, improvement_time_space);
  if (improvement <= 0.0) return -kInf;
  if (metric == HeatMetric::kImprovedLength ||
      metric == HeatMetric::kTimeSpace) {
    return improvement >= heat ? kInf : 0.0;
  }
  if (heat <= 0.0) return kInf;  // improvement / overhead > 0 >= heat
  // improvement / heat, moved by the ulps its rounding can be off: the
  // rounded quotient falls monotonically in the overhead, so the overheads
  // that reach `heat` are exactly (0, limit].  A heat of +infinity is
  // reached only where the quotient overflows, below improvement / max.
  const auto reaches = [&](double overhead) {
    return ComputeHeat(metric, improvement_length, improvement_time_space,
                       overhead) >= heat;
  };
  double limit =
      improvement / std::min(heat, std::numeric_limits<double>::max());
  while (limit > 0.0 && !reaches(limit)) limit = std::nextafter(limit, 0.0);
  while (reaches(std::nextafter(limit, kInf))) {
    limit = std::nextafter(limit, kInf);
  }
  return limit;
}

}  // namespace vor::core
