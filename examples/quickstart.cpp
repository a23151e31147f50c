// Quickstart: the paper's own worked example (Sec. 3.2, Fig. 2).
//
// Builds the three-node environment by hand, evaluates the two schedules
// the paper enumerates (all-direct S1 vs cache-at-IS1 S2) under the cost
// model, then lets the two-phase scheduler find its own plan.
//
//   $ ./quickstart
#include <iostream>

#include "vor/vor.hpp"

int main() {
  using namespace vor;

  // ---- environment: VW --(\$16/GB)-- IS1 --(\$8/GB)-- IS2 -------------
  net::Topology topology;
  const net::NodeId vw = topology.AddWarehouse("VW");
  const util::StorageRate srate{1.0 / (1e9 * 3600.0)};  // $1 per GB-hour
  const net::NodeId is1 = topology.AddStorage("IS1", util::GB(100), srate);
  const net::NodeId is2 = topology.AddStorage("IS2", util::GB(100), srate);
  topology.AddLink(vw, is1, util::NetworkRate{16.0 / 1e9});
  topology.AddLink(is1, is2, util::NetworkRate{8.0 / 1e9});

  // ---- one title: 2.5 GB, 90 min, 6 Mbps ------------------------------
  media::Catalog catalog;
  media::Video movie;
  movie.title = "feature-presentation";
  movie.size = util::GB(2.5);
  movie.playback = util::Minutes(90);
  movie.bandwidth = util::Mbps(6.0);
  catalog.Add(movie);

  // ---- three reservations (Fig. 2) ------------------------------------
  // U1 (neighborhood 1) at 1:00 pm; U2, U3 (neighborhood 2) at 2:30 and
  // 4:00 pm.
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(13.0), is1},
      {1, 0, util::Hours(14.5), is2},
      {2, 0, util::Hours(16.0), is2},
  };

  const net::Router router(topology);
  const core::CostModel cost_model(topology, router, catalog);

  // ---- schedule S1: everything straight from the warehouse ------------
  const core::Schedule s1 =
      baseline::NetworkOnlySchedule(requests, cost_model);
  std::cout << "Psi(S1)  all-direct              = $"
            << cost_model.TotalCost(s1).value() << "   (paper: $259.20)\n";

  // ---- schedule S2: IS1 caches off U1's stream -------------------------
  core::Schedule s2;
  {
    core::FileSchedule f;
    f.video = 0;
    core::Delivery d1{net::Route(router.CheapestPath(vw, is1).nodes),
                      requests[0].start_time, 0};
    f.deliveries.push_back(d1);
    core::Residency cache;
    cache.location = is1;
    cache.source = vw;
    cache.t_start = requests[0].start_time;
    cache.t_last = requests[2].start_time;
    cache.services = {1, 2};
    f.residencies.push_back(cache);
    for (const std::size_t i : {1UL, 2UL}) {
      f.deliveries.push_back(core::Delivery{
          net::Route(router.CheapestPath(is1, is2).nodes),
          requests[i].start_time, i});
    }
    s2.files.push_back(std::move(f));
  }
  std::cout << "Psi(S2)  cache at IS1            = $"
            << cost_model.TotalCost(s2).value() << "  (paper: $138.975)\n";

  // ---- let the scheduler plan for itself -------------------------------
  const core::VorScheduler scheduler(topology, catalog);
  const auto result = scheduler.Solve(requests);
  if (!result.ok()) {
    std::cerr << "scheduling failed: " << result.error().message << '\n';
    return 1;
  }
  std::cout << "Psi(S*)  two-phase scheduler     = $"
            << result->final_cost.value() << "\n\n";

  // Show the plan.
  for (const core::FileSchedule& f : result->schedule.files) {
    for (const core::Delivery& d : f.deliveries) {
      std::cout << "  deliver '" << catalog.video(f.video).title << "' at t="
                << d.start.value() / 3600.0 << "h via [";
      for (std::size_t i = 0; i < d.route.size(); ++i) {
        std::cout << (i ? " -> " : "") << topology.node(d.route[i]).name;
      }
      std::cout << "]\n";
    }
    for (const core::Residency& c : f.residencies) {
      std::cout << "  cache at " << topology.node(c.location).name
                << " over [" << c.t_start.value() / 3600.0 << "h, "
                << c.t_last.value() / 3600.0 << "h] serving "
                << c.services.size() << " request(s), storage cost $"
                << cost_model.ResidencyCost(c, f.video).value() << "\n";
    }
  }

  // Sanity: the plan is physically executable.
  const auto report =
      sim::ValidateSchedule(result->schedule, requests, cost_model);
  std::cout << "\nvalidation: "
            << (report.ok() ? "OK" : "VIOLATIONS FOUND") << '\n';
  return report.ok() ? 0 : 1;
}
