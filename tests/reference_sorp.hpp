// Test-only reference SORP: the paper's Table-3 loop written literally,
// as the oracle the golden suites compare the production engine against.
//
// Serial and monolithic: every round rebuilds the aggregate load from
// scratch, and every dry run builds its backdrop afresh: a storage::Load
// of the schedule with the victim's slot emptied (every other file's
// space and, on a topology with stream caps, streams).  It shares
// CollectSorpCandidates, the heat metrics, the victim tie-break, the
// max_iterations cap and the no-progress guard with core::SorpSolve, and
// deliberately nothing else — no commits, no overlays, no region shards,
// no thread pool, no dry-run bound: every dry run completes, so the
// golden suites prove the bound never changes a choice.
#pragma once

#include <vector>

#include "core/cost_model.hpp"
#include "core/schedule.hpp"
#include "core/sorp.hpp"
#include "workload/request.hpp"

namespace vor::oracle {

/// Resolves storage overflows in place, like core::SorpSolve.  Honours
/// `heat`, `victim_policy`, `capacity_aware_reschedule`, `ivsp` and
/// `max_iterations`, and the topology's stream caps; ignores `regions`,
/// `parallel`, `pool` and `metrics`.  Fills every SorpStats field except
/// `usage_rebuilds` and `region_shards`.
core::SorpStats ReferenceSorpSolve(
    core::Schedule& schedule, const std::vector<workload::Request>& requests,
    const core::CostModel& cost_model, const core::SorpOptions& options);

}  // namespace vor::oracle
