// Storage Overflow detection (Sec. 4.1).
//
// An overflow OF_{dt,ISj} is a maximal interval during which the summed
// reserved space at IS_j exceeds its capacity; Overflow_Set(ISj, dt) is
// the set of residencies contributing demand inside the interval.
#pragma once

#include <vector>

#include "core/cost_model.hpp"
#include "core/schedule.hpp"
#include "storage/load.hpp"
#include "util/interval.hpp"

namespace vor::core {

struct OverflowWindow {
  net::NodeId node = net::kInvalidNode;
  util::Interval window;
  /// Peak reserved bytes during the window.
  double peak_bytes = 0.0;
  /// Capacity of the node (bytes).
  double capacity_bytes = 0.0;
  /// Residencies whose occupancy overlaps the window.
  std::vector<ResidencyRef> contributors;
};

/// All overflow windows of the schedule, ordered by (node, start time).
[[nodiscard]] std::vector<OverflowWindow> DetectOverflows(
    const core::Schedule& schedule, const core::CostModel& cost_model);

/// Detection against a prebuilt load's space keys (avoids rebuilding
/// inside the SORP loop).
[[nodiscard]] std::vector<OverflowWindow> DetectOverflowsIn(
    const storage::Load& load);

/// Total time-space excess (byte-seconds above capacity) over the load's
/// space keys, a monotone progress measure for the resolution loop.
[[nodiscard]] double TotalExcess(const storage::Load& load);

}  // namespace vor::core
