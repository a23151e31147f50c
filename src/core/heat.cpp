#include "core/heat.hpp"

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

double ComputeHeat(HeatMetric metric, double improvement_length,
                   double improvement_time_space, double overhead_cost) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double improvement = (metric == HeatMetric::kImprovedLength ||
                              metric == HeatMetric::kLengthPerCost)
                                 ? improvement_length
                                 : improvement_time_space;
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

}  // namespace vor::core
