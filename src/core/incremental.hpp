// Incremental re-solve for late reservations.
//
// A VOR provider keeps accepting bookings until the cycle's cutoff.  In
// phase 1 files are scheduled independently, so when late requests
// arrive only the *affected titles'* greedy runs need repeating; every
// other title's current plan carries over verbatim, and phase 2 then
// re-resolves storage overflows on the merged schedule.
//
// Two properties follow:
//   * when the previous run was overflow free, carried-over plans equal
//     their phase-1 plans, so the incremental result is IDENTICAL to
//     re-solving the enlarged cycle from scratch (tests assert this);
//   * when it was not, carrying over the previous *resolved* plans keeps
//     unaffected titles' schedules stable (operationally desirable — the
//     provider has likely already pre-staged those transfers) at a
//     possibly slightly different cost than a scratch re-solve.
//
// On a topology with stream caps the carried-over files are committed
// load: their streams seed the stream load, and the recomputed files are
// placed around them in ascending order (PlaceFilesUnderStreamCaps, the
// loop IvspSolve uses), so a previous run with carried-over files no
// longer equals a scratch re-solve; from an empty previous solution the
// result still equals VorScheduler::Solve.
#pragma once

#include <vector>

#include "core/scheduler.hpp"
#include "util/result.hpp"
#include "workload/request.hpp"

namespace vor::core {

struct IncrementalStats {
  /// Titles whose phase-1 plan was recomputed.
  std::size_t files_rescheduled = 0;
  /// Titles whose plan carried over untouched (before phase 2).
  std::size_t files_carried_over = 0;
};

/// Extends a previous solution with `late_requests`.
///
/// `previous` must be the output of VorScheduler::Solve (or a prior
/// IncrementalSolve) over `original_requests` with the same scheduler.
/// Returns a fresh SolveOutput over the concatenated request list
/// (original order preserved; late requests appended — request indices in
/// the result refer to that concatenation, which is also returned via
/// `merged_requests`).
[[nodiscard]] util::Result<SolveOutput> IncrementalSolve(
    const VorScheduler& scheduler, const SolveOutput& previous,
    const std::vector<workload::Request>& original_requests,
    const std::vector<workload::Request>& late_requests,
    std::vector<workload::Request>* merged_requests,
    IncrementalStats* stats = nullptr);

}  // namespace vor::core
