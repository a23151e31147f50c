#include "reference_sorp.hpp"

#include <cstddef>
#include <optional>
#include <utility>

#include "core/heat.hpp"
#include "core/overflow.hpp"
#include "core/rejective_greedy.hpp"
#include "storage/load.hpp"

namespace vor::oracle {

core::SorpStats ReferenceSorpSolve(
    core::Schedule& schedule, const std::vector<workload::Request>& requests,
    const core::CostModel& cost_model, const core::SorpOptions& options) {
  core::SorpStats stats;
  stats.cost_before = cost_model.TotalCost(schedule);

  std::optional<storage::Load> load;
  load.emplace(schedule, cost_model, storage::Resources::kSpace);
  std::vector<core::OverflowWindow> overflows = core::DetectOverflowsIn(*load);
  stats.initial_overflow_windows = overflows.size();
  stats.initial_excess = core::TotalExcess(*load);
  double excess = stats.initial_excess;

  while (!overflows.empty() &&
         stats.victims_rescheduled < options.max_iterations) {
    std::vector<core::SorpCandidate> candidates =
        core::CollectSorpCandidates(schedule, overflows, cost_model);
    if (candidates.empty()) break;
    if (options.victim_policy == core::VictimPolicy::kFirstContributor) {
      candidates.resize(1);
    }

    // Dry-run every candidate in discovery order; keep the hottest, ties
    // to the smallest file index, then to the earlier candidate.
    std::optional<core::RescheduleResult> best;
    double best_heat = 0.0;
    std::size_t best_file = 0;
    for (const core::SorpCandidate& c : candidates) {
      // The backdrop: a fresh load of every file but the victim.
      std::vector<std::size_t> others;
      for (std::size_t f = 0; f < schedule.files.size(); ++f) {
        if (f != c.file_index) others.push_back(f);
      }
      const storage::Load backdrop(schedule, cost_model, others);
      core::RescheduleResult attempt = core::RescheduleVictim(
          schedule, c.file_index, requests, cost_model, options.ivsp,
          {{c.node, c.window}},
          backdrop.Excluding(c.file_index, options.capacity_aware_reschedule));
      const double heat = core::ComputeHeat(options.heat, c.chi, c.ds,
                                            attempt.Overhead().value());
      ++stats.evaluations;
      if (!best.has_value() || heat > best_heat ||
          (heat == best_heat && c.file_index < best_file)) {
        best = std::move(attempt);
        best_heat = heat;
        best_file = c.file_index;
      }
    }

    schedule.files[best_file] = std::move(best->schedule);
    ++stats.victims_rescheduled;

    load.emplace(schedule, cost_model, storage::Resources::kSpace);
    overflows = core::DetectOverflowsIn(*load);
    const double new_excess = core::TotalExcess(*load);
    if (new_excess >= excess) break;  // no progress
    excess = new_excess;
  }

  stats.final_excess = core::TotalExcess(*load);
  stats.cost_after = cost_model.TotalCost(schedule);
  return stats;
}

}  // namespace vor::oracle
