#include "core/report.hpp"

#include <algorithm>
#include <sstream>

#include "storage/load.hpp"
#include "util/table.hpp"

namespace vor::core {

ScheduleReport BuildReport(const Schedule& schedule,
                           const std::vector<workload::Request>& requests,
                           const CostModel& cost_model) {
  ScheduleReport report;
  report.requests = requests.size();

  std::map<net::NodeId, NodeReport> nodes;
  const net::NodeId vw = cost_model.topology().warehouse();

  for (const FileSchedule& file : schedule.files) {
    for (const Delivery& d : file.deliveries) {
      report.network_cost += cost_model.DeliveryCost(d, file.video).value();
      const std::size_t hops = d.route.size() - 1;
      if (report.hops_histogram.size() <= hops) {
        report.hops_histogram.resize(hops + 1, 0);
      }
      ++report.hops_histogram[hops];
      report.link_bytes += static_cast<double>(hops) *
                           cost_model.StreamBytes(file.video).value();
      if (d.request_index != kNoRequest) {
        if (d.origin() == vw) {
          ++report.served_direct;
        } else {
          ++report.served_from_cache;
          ++nodes[d.origin()].services_from_cache;
        }
      }
    }
    for (const Residency& c : file.residencies) {
      ++report.residencies;
      NodeReport& n = nodes[c.location];
      n.node = c.location;
      ++n.residencies;
      n.storage_cost += cost_model.ResidencyCost(c, file.video).value();
      report.storage_cost += cost_model.ResidencyCost(c, file.video).value();
    }
  }
  report.total_cost = report.network_cost + report.storage_cost;
  report.cache_hit_ratio =
      report.requests == 0
          ? 0.0
          : static_cast<double>(report.served_from_cache) /
                static_cast<double>(report.requests);

  const storage::Load load(schedule, cost_model, storage::Resources::kSpace);
  for (auto& [id, node] : nodes) {
    node.node = id;
    node.peak_bytes = load.SpacePeak(id);
    report.nodes.push_back(node);
  }
  std::sort(report.nodes.begin(), report.nodes.end(),
            [](const NodeReport& a, const NodeReport& b) {
              return a.node < b.node;
            });
  return report;
}

std::string ScheduleReport::ToText(const net::Topology& topology) const {
  std::ostringstream os;
  os << "schedule report\n"
     << "  total cost        $" << util::Table::Num(total_cost, 2) << '\n'
     << "    network         $" << util::Table::Num(network_cost, 2) << '\n'
     << "    storage         $" << util::Table::Num(storage_cost, 2) << '\n'
     << "  requests          " << requests << " (direct " << served_direct
     << ", from cache " << served_from_cache << ", hit ratio "
     << util::Table::Num(cache_hit_ratio * 100.0, 1) << "%)\n"
     << "  residencies       " << residencies << '\n'
     << "  link bytes        " << util::Table::Num(link_bytes / 1e9, 2)
     << " GB\n";
  os << "  hops histogram    ";
  for (std::size_t h = 0; h < hops_histogram.size(); ++h) {
    os << h << ':' << hops_histogram[h]
       << (h + 1 < hops_histogram.size() ? "  " : "");
  }
  os << '\n';
  if (!nodes.empty()) {
    util::Table table({"storage", "caches", "cache services", "storage $",
                       "peak GB"});
    for (const NodeReport& n : nodes) {
      table.AddRow({topology.node(n.node).name, std::to_string(n.residencies),
                    std::to_string(n.services_from_cache),
                    util::Table::Num(n.storage_cost, 2),
                    util::Table::Num(n.peak_bytes / 1e9, 2)});
    }
    table.PrintPretty(os);
  }
  return os.str();
}

}  // namespace vor::core
