#include "core/rejective_greedy.hpp"

#include <algorithm>
#include <cassert>

#include "workload/generator.hpp"

namespace vor::core {

std::vector<std::size_t> FileRequestIndices(
    std::span<const Delivery> deliveries,
    const std::vector<workload::Request>& requests) {
  std::vector<std::size_t> indices;
  indices.reserve(deliveries.size());
  for (const Delivery& d : deliveries) {
    if (d.request_index != kNoRequest) indices.push_back(d.request_index);
  }
  // A solve's plan delivers in this order already; only a restored
  // schedule may need the sort.
  const workload::ChronologicalOrder order{&requests};
  if (!std::is_sorted(indices.begin(), indices.end(), order)) {
    std::sort(indices.begin(), indices.end(), order);
  }
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  return indices;
}

RescheduleResult RescheduleVictim(
    const Schedule& schedule, std::size_t file_index,
    const std::vector<workload::Request>& requests,
    const CostModel& cost_model, const IvspOptions& options,
    std::vector<std::pair<net::NodeId, util::Interval>> forbidden,
    const storage::LoadView& others) {
  assert(file_index < schedule.files.size());
  assert(others.file() == file_index);
  const FileSchedule& old_file = schedule.files[file_index];

  ConstraintSet constraints;
  constraints.forbidden = std::move(forbidden);
  constraints.load = &others;

  RescheduleResult result;
  result.old_cost = cost_model.FileCost(old_file);
  result.schedule = ScheduleFileGreedy(
      old_file.video, requests,
      FileRequestIndices(old_file.deliveries, requests),
      cost_model, options, &constraints, &result.greedy);
  result.new_cost = cost_model.FileCost(result.schedule);
  return result;
}

}  // namespace vor::core
