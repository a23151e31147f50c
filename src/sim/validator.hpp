// Schedule validation: checks that a service schedule is physically
// executable in the distributed environment.
//
// This is the library's independent correctness oracle: it knows nothing
// about how the scheduler made its choices, only what a legal schedule
// looks like.  Tests run every scheduler output through it, including
// fault-injection tests that corrupt schedules on purpose.  The service
// checks each close with ValidateChange, the same rules over only what
// the close's solve wrote.
#pragma once

#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/schedule.hpp"
#include "workload/request.hpp"

namespace vor::core {
class SolveUndo;
}  // namespace vor::core

namespace vor::sim {

struct Violation {
  enum class Kind {
    kUnservedRequest,       // a request has no delivery
    kDuplicateService,      // a request has more than one delivery
    kBadRouteEndpoints,     // delivery does not end at the requester's IS
    kBrokenRoute,           // consecutive route nodes are not linked
    kWrongStartTime,        // delivery starts at a different time
    kInvalidSource,         // origin is neither VW nor a valid cache
    kUnanchoredResidency,   // no stream passes the cache site at t_start
    kInconsistentResidency, // t_last < t_start, or t_last != last service
    kServiceOutsideWindow,  // cache service before t_start / after t_last
    kCapacityExceeded,      // reserved space above IS capacity
  };

  Kind kind;
  std::string detail;
};

struct ValidationOptions {
  /// Phase-1 schedules legitimately overflow; set false to skip the
  /// capacity check for them.
  bool check_capacity = true;
  /// Numerical slack on the capacity check (bytes).
  double capacity_epsilon = 1.0;
};

struct ValidationReport {
  std::vector<Violation> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Validates `schedule` against the request cycle and the environment in
/// `cost_model`.  It is ValidateChange's check with every file changed
/// from its first record and every request new.
[[nodiscard]] ValidationReport ValidateSchedule(
    const core::Schedule& schedule,
    const std::vector<workload::Request>& requests,
    const core::CostModel& cost_model, const ValidationOptions& options = {});

/// Validates what one in-place solve wrote: `schedule` is the solution
/// core::IncrementalSolve made from a state over `requests[0..first_new)`
/// with the late requests `requests[first_new..]`, and `change` is the
/// undo it returned.  The check reads, with every rule ValidateSchedule
/// applies to them:
///   * each re-planned slot's deliveries after its kept prefix (all of a
///     SORP victim's), the origin checked against the slot's caches now;
///   * its caches opened after the split, anchoring searched over the
///     whole file;
///   * its caches open at the split: their times, the services appended
///     to them, and t_last against the last service;
///   * coverage: every new request, and every request the re-planned
///     slots served before the solve, is served exactly once by the
///     changed deliveries, and no changed delivery serves another;
///   * capacity, from one space build over every residency.
///
/// The caller vouches for the rest:
///   1. the state the solve started from passed ValidateSchedule with
///      default options against `requests[0..first_new)` (a service's
///      committed state did: a restore runs the full check, and every
///      close this one);
///   2. no record outside the change has moved since the solve;
///   3. every kept prefix is the unconstrained greedy's own plan, as
///      IncrementalSolve keeps one only for such a title: its deliveries
///      are in start order, each cache open at the split is anchored by
///      one of them, and each of them sent from a cache is one of the
///      kept services of a cache open at the split.
/// Then ValidateChange rejects exactly what ValidateSchedule with default
/// options rejects, and reports the same violations in the same order.
/// It reads the changed records and, for capacity, every residency; no
/// unchanged delivery.
[[nodiscard]] ValidationReport ValidateChange(
    const core::Schedule& schedule,
    const std::vector<workload::Request>& requests,
    const core::CostModel& cost_model, const core::SolveUndo& change,
    std::size_t first_new);

[[nodiscard]] std::string ToString(Violation::Kind kind);

}  // namespace vor::sim
