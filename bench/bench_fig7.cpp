// Figure 7 — Storage charging rate vs. total service cost (Sec. 5.3).
//
// Paper setting: alpha = 0.271, IS size = 5 GB, nrate = 300; the storage
// charging rate sweeps 0..300 and the plot carries a horizontal
// "network only system" reference line.
//
// Expected shape: with cheap storage the scheduler caches heavily, so
// cost rises steeply in srate at first; as storage grows expensive the
// scheduler shifts to repeated network deliveries and the curve flattens,
// approaching the network-only cost from below.
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace vor;

  workload::ScenarioParams base;
  base.zipf_alpha = 0.271;
  base.is_capacity = util::GB(5.0);
  base.nrate_per_gb = 300.0;

  util::PrintBenchHeader(
      std::cout, "Figure 7",
      "Total service cost vs storage charging rate (alpha=0.271, IS=5GB,\n"
      "nrate=300), with the network-only reference line",
      base.seed);

  const std::vector<double> srates{0,  5,  10, 25,  50,  75,
                                   100, 150, 200, 250, 300};
  const double network_only = bench::RunNetworkOnly(base);

  util::Table table({"srate($/GBh)", "with-IS", "network-only"});
  std::vector<double> costs(srates.size());
  bench::ParallelSweep(srates.size(), [&](std::size_t i) {
    workload::ScenarioParams p = base;
    p.srate_per_gb_hour = srates[i];
    costs[i] = bench::RunScheduler(p).final_cost;
  });
  for (std::size_t i = 0; i < srates.size(); ++i) {
    table.AddRow({util::Table::Num(srates[i], 0), util::Table::Num(costs[i], 0),
                  util::Table::Num(network_only, 0)});
  }
  bench::EmitTable(table);

  const double early_slope = (costs[2] - costs[0]) / (srates[2] - srates[0]);
  const double late_slope = (costs.back() - costs[costs.size() - 3]) /
                            (srates.back() - srates[srates.size() - 3]);
  const bool saturating = early_slope > late_slope;
  std::cout << "early slope=" << early_slope << " late slope=" << late_slope
            << (saturating ? "  (saturating, as in the paper)\n"
                           : "  (UNEXPECTED)\n");
  std::cout << "final/network-only = " << costs.back() / network_only
            << "  (approaches 1 from below in the paper)\n";
  return saturating ? 0 : 1;
}
