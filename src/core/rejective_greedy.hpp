// Victim rescheduling via the Rejective Greedy (Sec. 4.4).
//
// Rescheduling a file means re-arranging the delivery of ALL its requests
// with (a) the overflow window forbidden for caching at the overflowing
// IS and (b) every other candidate residency checked against the space
// the remaining files already reserve — so resolving one overflow can
// never create another.
#pragma once

#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/ivsp.hpp"
#include "core/schedule.hpp"
#include "storage/load.hpp"
#include "util/interval.hpp"
#include "workload/request.hpp"

namespace vor::core {

struct RescheduleResult {
  /// An abandoned run's plan holds only the requests served before it
  /// stopped.
  FileSchedule schedule;
  util::Money old_cost{0.0};
  /// Not priced (0) when the run was abandoned.
  util::Money new_cost{0.0};
  /// The run passed its ceiling: its overhead exceeds the `max_overhead`
  /// RescheduleVictim was given.
  bool abandoned = false;
  /// Decision/rejection tallies of the constrained greedy run (candidate
  /// updates priced, forbidden-window / capacity / route rejections), up
  /// to where it stopped.
  GreedyStats greedy;

  /// The overhead cost of Sec. 4.2: Psi(S_new) - Psi(S_old).  Usually
  /// positive, but can be negative because phase 1 is itself heuristic.
  /// Meaningless for an abandoned run.
  [[nodiscard]] util::Money Overhead() const { return new_cost - old_cost; }
};

/// The request indices `deliveries` serve, in
/// workload::ChronologicalOrder (the order phase 1 served them in),
/// skipping unbound ones: the request list that SORP re-plans a victim
/// over, and that a later solve merges a cut title's new requests into.
/// Sorts only when the deliveries are not already in that order, as a
/// solve writes them.
[[nodiscard]] std::vector<std::size_t> FileRequestIndices(
    std::span<const Delivery> deliveries,
    const std::vector<workload::Request>& requests);

/// What every dry run of one victim file shares: the requests its plan
/// serves (FileRequestIndices) and the plan's cost Psi(S_old).
struct VictimInputs {
  std::vector<std::size_t> indices;
  util::Money cost{0.0};
};

[[nodiscard]] VictimInputs VictimInputsOf(
    const FileSchedule& plan, const std::vector<workload::Request>& requests,
    const CostModel& cost_model);

/// Recomputes S_i^new(dt, ISj) for the file at `file_index`:
///   * `forbidden` — (node, interval) pairs the file must not be resident
///     in (the overflow being resolved);
///   * `others` — the load of all other files, a storage::Load view
///     excluding `file_index`: candidates must fit each IS's remaining
///     space and, on a topology with stream caps, their streams must fit
///     the capped links and origins.  The run keeps its own streams in a
///     private delta over the view;
///   * `max_overhead` — the run is abandoned, and its plan not priced,
///     once the plan's cost provably exceeds the old cost by more than
///     this (default: never).  A run whose overhead is at most
///     `max_overhead` always completes; one abandoned always has a
///     larger overhead.  Its ceiling adds a relative slack to old cost +
///     `max_overhead` that covers the rounding between the greedy's
///     running sum and CostModel::FileCost;
///   * `inputs` — the file's VictimInputsOf, or null to compute them.
///
/// The run reads only schedule.files[file_index] from `schedule` — every
/// other file's influence arrives exclusively through `others`.
/// Region-sharded SORP relies on this: a shard commits to its own file
/// slots while other shards' dry runs read the same schedule.
[[nodiscard]] RescheduleResult RescheduleVictim(
    const Schedule& schedule, std::size_t file_index,
    const std::vector<workload::Request>& requests,
    const CostModel& cost_model, const IvspOptions& options,
    std::vector<std::pair<net::NodeId, util::Interval>> forbidden,
    const storage::LoadView& others,
    double max_overhead = std::numeric_limits<double>::infinity(),
    const VictimInputs* inputs = nullptr);

}  // namespace vor::core
