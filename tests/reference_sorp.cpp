#include "reference_sorp.hpp"

#include <cstddef>
#include <optional>
#include <utility>

#include "core/heat.hpp"
#include "core/overflow.hpp"
#include "core/rejective_greedy.hpp"
#include "storage/stream_load.hpp"
#include "storage/usage_timeline.hpp"

namespace vor::oracle {

core::SorpStats ReferenceSorpSolve(
    core::Schedule& schedule, const std::vector<workload::Request>& requests,
    const core::CostModel& cost_model, const core::SorpOptions& options) {
  const net::Topology& topology = cost_model.topology();
  core::SorpStats stats;
  stats.cost_before = cost_model.TotalCost(schedule);

  storage::UsageMap usage = storage::BuildUsage(schedule, cost_model);
  std::vector<core::OverflowWindow> overflows =
      core::DetectOverflowsIn(usage, topology);
  stats.initial_overflow_windows = overflows.size();
  stats.initial_excess = core::TotalExcess(usage, topology);
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
      storage::UsageMap other;
      storage::UsageView view;
      if (options.capacity_aware_reschedule) {
        other = storage::BuildUsageExcludingFile(schedule, cost_model,
                                                 c.file_index);
        view = storage::UsageView(&other);
      }
      std::optional<storage::StreamLoad> streams;
      if (storage::HasStreamCaps(topology)) {
        streams.emplace(topology, cost_model.catalog());
        for (std::size_t f = 0; f < schedule.files.size(); ++f) {
          if (f != c.file_index) streams->AddFile(schedule.files[f]);
        }
      }
      core::RescheduleResult attempt = core::RescheduleVictim(
          schedule, c.file_index, requests, cost_model, options.ivsp,
          {{c.node, c.window}}, view,
          streams.has_value() ? &*streams : nullptr);
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

    usage = storage::BuildUsage(schedule, cost_model);
    overflows = core::DetectOverflowsIn(usage, topology);
    const double new_excess = core::TotalExcess(usage, topology);
    if (new_excess >= excess) break;  // no progress
    excess = new_excess;
  }

  stats.final_excess = core::TotalExcess(usage, topology);
  stats.cost_after = cost_model.TotalCost(schedule);
  return stats;
}

}  // namespace vor::oracle
