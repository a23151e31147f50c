// Heat: the victim-selection criterion of Sec. 4.2/4.3.
//
// Rescheduling a residency c_i that contributes to overflow OF_{dt,ISj}
// trades an overhead cost (Psi(S_new) - Psi(S_old)) against an improvement
// of the overflow situation.  The paper compares four improvement metrics:
//
//   M1 (Eq. 8)   chi  = |overlap of the overflow window with c_i's
//                 occupancy support|  — improved-period length;
//   M2 (Eq. 9)   chi / overhead;
//   M3 (Eq. 10)  dS   = integral of f_ci(t) over that overlap — amortized
//                 time-space improvement (Eq. 5);
//   M4 (Eq. 11)  dS / overhead.
//
// The file with the largest heat is rescheduled first.  The paper's
// experiments find M4 best on average, with M2 close behind (Table 5).
#pragma once

#include <cstdint>
#include <string>

#include "core/cost_model.hpp"
#include "core/overflow.hpp"
#include "core/schedule.hpp"

namespace vor::core {

enum class HeatMetric : std::uint8_t {
  kImprovedLength,         // M1, Eq. (8)
  kLengthPerCost,          // M2, Eq. (9)
  kTimeSpace,              // M3, Eq. (10)
  kTimeSpacePerCost,       // M4, Eq. (11)
};

[[nodiscard]] std::string ToString(HeatMetric metric);

/// chi of Eq. (8): length (seconds) of the overlap between the overflow
/// window and the residency's occupancy support [t_s, t_f + P].  `video`
/// is the title of the file holding `c`.
[[nodiscard]] double ImprovedLength(const Residency& c, media::VideoId video,
                                    const OverflowWindow& overflow,
                                    const CostModel& cost_model);

/// dS of Eq. (5): byte-seconds of the residency's own occupancy inside the
/// overflow window — what disappears from the window if the file leaves.
[[nodiscard]] double TimeSpaceImprovement(const Residency& c,
                                          media::VideoId video,
                                          const OverflowWindow& overflow,
                                          const CostModel& cost_model);

/// Combines improvement and overhead into the selected heat value.
/// overhead <= 0 (rescheduling is free or even cheaper — possible because
/// phase 1 is heuristic) yields +infinity: such victims are always taken
/// first.  Improvement <= 0 yields -infinity (rescheduling cannot help).
[[nodiscard]] double ComputeHeat(HeatMetric metric, double improvement_length,
                                 double improvement_time_space,
                                 double overhead_cost);

}  // namespace vor::core
