// A Video-On-Reservation service request (Sec. 2.1): the user asks, ahead
// of time, for a title to start playing at a given instant.
#pragma once

#include <cmath>
#include <cstdint>

#include "media/video.hpp"
#include "net/topology.hpp"
#include "util/units.hpp"

namespace vor::workload {

using UserId = std::uint32_t;

struct Request {
  UserId user = 0;
  media::VideoId video = 0;
  /// Requested presentation start time within the scheduling cycle.
  util::Seconds start_time{0.0};
  /// The intermediate storage local to the user's neighborhood.  The
  /// user<->local-IS path is fixed and never priced (Sec. 2.1), so the IS
  /// node is the delivery endpoint the scheduler sees.
  net::NodeId neighborhood = net::kInvalidNode;
};

/// Whether `t` may stand as a start or arrival time: finite and >= 0.
/// A bare `t < 0` test lets NaN and +Inf through, and a NaN arrival
/// breaks the strict weak order the service's drain sort relies on.
[[nodiscard]] inline bool IsValidTime(util::Seconds t) {
  return std::isfinite(t.value()) && t.value() >= 0.0;
}

}  // namespace vor::workload
