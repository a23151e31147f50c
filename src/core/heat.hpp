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

/// The improvement `metric` rates: chi under M1/M2, dS under M3/M4.
[[nodiscard]] double Improvement(HeatMetric metric, double improvement_length,
                                 double improvement_time_space);

/// Combines improvement and overhead into the selected heat value.
/// overhead <= 0 (rescheduling is free or even cheaper — possible because
/// phase 1 is heuristic) yields +infinity: such victims are always taken
/// first.  Improvement <= 0 yields -infinity (rescheduling cannot help).
[[nodiscard]] double ComputeHeat(HeatMetric metric, double improvement_length,
                                 double improvement_time_space,
                                 double overhead_cost);

/// The largest overhead at which a candidate with these improvements
/// still reaches `heat`: ComputeHeat at the returned overhead is >= `heat`
/// and at every larger overhead it is < `heat`, in floating point.
/// +infinity when every overhead reaches it (`heat` is -infinity, or
/// M1/M3 with an improvement >= `heat`); 0 when only a free run reaches
/// it (`heat` is +infinity, or M1/M3 with a smaller improvement; under
/// M2/M4 a +infinity is also reached by overheads small enough to
/// overflow the quotient, up to improvement / DBL_MAX); -infinity when
/// no overhead does (improvement <= 0).  Otherwise, under M2/M4, it is
/// improvement / `heat`.  SORP prunes a dry run whose plan costs more.
[[nodiscard]] double OverheadLimit(HeatMetric metric,
                                   double improvement_length,
                                   double improvement_time_space,
                                   double heat);

}  // namespace vor::core
