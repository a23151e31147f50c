#include "baseline/network_only.hpp"

#include "workload/generator.hpp"

namespace vor::baseline {

core::Schedule NetworkOnlySchedule(
    const std::vector<workload::Request>& requests,
    const core::CostModel& cost_model) {
  const net::NodeId vw = cost_model.topology().warehouse();
  core::Schedule schedule;
  for (const auto& [video, indices] : workload::GroupByVideo(requests)) {
    core::FileSchedule file;
    file.video = video;
    for (const std::size_t idx : indices) {
      const workload::Request& req = requests[idx];
      core::Delivery d;
      d.route = cost_model.router().CheapestPath(vw, req.neighborhood).nodes;
      d.start = req.start_time;
      d.request_index = idx;
      file.deliveries.push_back(std::move(d));
    }
    schedule.files.push_back(std::move(file));
  }
  return schedule;
}

}  // namespace vor::baseline
