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

VictimInputs VictimInputsOf(const FileSchedule& plan,
                            const std::vector<workload::Request>& requests,
                            const CostModel& cost_model) {
  return VictimInputs{FileRequestIndices(plan.deliveries, requests),
                      cost_model.FileCost(plan)};
}

RescheduleResult RescheduleVictim(
    const Schedule& schedule, std::size_t file_index,
    const std::vector<workload::Request>& requests,
    const CostModel& cost_model, const IvspOptions& options,
    std::vector<std::pair<net::NodeId, util::Interval>> forbidden,
    const storage::LoadView& others, double max_overhead,
    const VictimInputs* inputs) {
  assert(file_index < schedule.files.size());
  assert(others.file() == file_index);
  const FileSchedule& old_file = schedule.files[file_index];
  VictimInputs own;
  if (inputs == nullptr) {
    own = VictimInputsOf(old_file, requests, cost_model);
    inputs = &own;
  }

  ConstraintSet constraints;
  constraints.forbidden = std::move(forbidden);
  constraints.load = &others;
  // The running sum adds the plan's cost terms in another order than
  // FileCost does (and prices a delivery by its endpoints' rate, not its
  // links'), so the two differ by a few ulps per term: at most
  // kSumSlack relative, as the premise check below asserts.  A run stops
  // only above twice that slack, where FileCost - old cost still exceeds
  // max_overhead after every rounding.  (A ceiling below 0 needs no
  // slack: every plan costs >= 0.)
  constexpr double kSumSlack = 1e-9;
  const double bare = inputs->cost.value() + max_overhead;
  constraints.ceiling =
      util::Money{std::max(bare, bare * (1.0 + 2.0 * kSumSlack))};

  RescheduleResult result;
  result.old_cost = inputs->cost;
  result.schedule.video = old_file.video;
  const util::Money spent =
      ExtendFileGreedy(result.schedule, requests, inputs->indices, cost_model,
                       options, &constraints, &result.greedy);
  result.abandoned = spent > constraints.ceiling;
  if (result.abandoned) return result;
  result.new_cost = cost_model.FileCost(result.schedule);
  assert(spent.value() <= result.new_cost.value() * (1.0 + kSumSlack));
  return result;
}

}  // namespace vor::core
