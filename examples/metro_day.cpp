// metro_day: one full reservation cycle for a metropolitan deployment —
// the workload the paper's introduction motivates (Video-On-Reservation
// home entertainment over a 20-node metro infrastructure).
//
// Builds the Table-4 environment (19 neighborhoods, 500 titles, evening-
// peaked demand), schedules the day, then replays the schedule through
// the discrete-event simulator and reports operational telemetry: cost
// breakdown, cache utilisation per storage, backbone traffic, and the
// day's busiest titles.
//
//   $ ./metro_day
#include <algorithm>
#include <iostream>
#include <map>

#include "vor/vor.hpp"

int main() {
  using namespace vor;

  workload::ScenarioParams params;
  params.start_profile = workload::StartTimeProfile::kEveningPeak;
  params.is_capacity = util::GB(8.0);
  params.nrate_per_gb = 600.0;
  params.srate_per_gb_hour = 4.0;
  const workload::Scenario scenario = workload::MakeScenario(params);

  std::cout << "metro_day: " << scenario.requests.size()
            << " reservations, " << scenario.catalog.size() << " titles, "
            << scenario.topology.StorageNodes().size()
            << " neighborhoods (seed=" << params.seed << ")\n\n";

  const core::VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto result = scheduler.Solve(scenario.requests);
  if (!result.ok()) {
    std::cerr << "scheduling failed: " << result.error().message << '\n';
    return 1;
  }
  const core::CostModel& cm = scheduler.cost_model();

  // ---- cost breakdown --------------------------------------------------
  double network_cost = 0.0;
  double storage_cost = 0.0;
  for (const core::FileSchedule& f : result->schedule.files) {
    for (const core::Delivery& d : f.deliveries) {
      network_cost += cm.DeliveryCost(d, f.video).value();
    }
    for (const core::Residency& c : f.residencies) {
      storage_cost += cm.ResidencyCost(c, f.video).value();
    }
  }
  const double direct_cost =
      cm.TotalCost(baseline::NetworkOnlySchedule(scenario.requests, cm))
          .value();
  std::cout << "total cost            $" << result->final_cost.value() << '\n'
            << "  network             $" << network_cost << '\n'
            << "  storage             $" << storage_cost << '\n'
            << "network-only baseline $" << direct_cost << "  (saving "
            << 100.0 * (direct_cost - result->final_cost.value()) / direct_cost
            << "%)\n"
            << "caches placed         " << result->schedule.TotalResidencies()
            << ", overflow victims rescheduled "
            << result->sorp.victims_rescheduled << "\n\n";

  // ---- replay through the DES and report utilisation -------------------
  const sim::SimulationResult sim = sim::SimulateSchedule(
      result->schedule, scenario.requests, cm);
  std::cout << "peak concurrent streams: " << sim.peak_concurrent_streams
            << "\n\nper-neighborhood storage use:\n";
  util::Table node_table({"storage", "peak GB", "mean GB", "caches",
                          "capacity GB"});
  for (const sim::NodeTelemetry& n : sim.nodes) {
    node_table.AddRow({scenario.topology.node(n.node).name,
                       util::Table::Num(n.peak_bytes / 1e9, 2),
                       util::Table::Num(n.mean_bytes / 1e9, 2),
                       std::to_string(n.residencies),
                       util::Table::Num(
                           scenario.topology.node(n.node).capacity.value() / 1e9,
                           1)});
  }
  node_table.PrintPretty(std::cout);

  std::cout << "\nbusiest links (by shipped bytes):\n";
  std::vector<sim::LinkTelemetry> links = sim.links;
  std::sort(links.begin(), links.end(),
            [](const auto& a, const auto& b) {
              return a.total_bytes > b.total_bytes;
            });
  util::Table link_table({"link", "GB shipped", "peak streams", "peak Mbps"});
  for (std::size_t i = 0; i < std::min<std::size_t>(5, links.size()); ++i) {
    link_table.AddRow(
        {scenario.topology.node(links[i].a).name + " - " +
             scenario.topology.node(links[i].b).name,
         util::Table::Num(links[i].total_bytes / 1e9, 1),
         std::to_string(links[i].peak_streams),
         util::Table::Num(links[i].peak_bandwidth * 8.0 / 1e6, 1)});
  }
  link_table.PrintPretty(std::cout);

  // ---- the day's hot titles --------------------------------------------
  std::map<media::VideoId, int> popularity;
  for (const workload::Request& r : scenario.requests) ++popularity[r.video];
  std::vector<std::pair<int, media::VideoId>> hot;
  for (const auto& [video, count] : popularity) hot.emplace_back(count, video);
  std::sort(hot.rbegin(), hot.rend());
  std::cout << "\nhottest titles of the day:\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(5, hot.size()); ++i) {
    const std::size_t file = result->schedule.FindFile(hot[i].second);
    const std::size_t caches =
        file == static_cast<std::size_t>(-1)
            ? 0
            : result->schedule.files[file].residencies.size();
    std::cout << "  " << scenario.catalog.video(hot[i].second).title << ": "
              << hot[i].first << " reservations, " << caches << " cache(s)\n";
  }
  return 0;
}
