// Figure 5 — Effect of the Network Charging Rate (Sec. 5.2).
//
// Paper setting: zipf alpha = 0.271, IS size = 5 GB.  X axis: network
// charging rate 300..1000; one curve per storage charging rate
// (srate in {3, 5, 7}), plus the "without intermediate storage" line.
//
// Expected shape (paper): every curve grows ~linearly in nrate; the
// network-only line grows fastest, so the advantage of intermediate
// storage widens as the network charging rate increases; raising srate
// shifts the curves up only slightly (storage is a small share of total
// cost at this operating point).
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace vor;

  workload::ScenarioParams base;
  base.zipf_alpha = 0.271;
  base.is_capacity = util::GB(5.0);

  util::PrintBenchHeader(
      std::cout, "Figure 5",
      "Total service cost vs network charging rate (alpha=0.271, IS=5GB);\n"
      "series: srate in {3,5,7} $/GBh plus the network-only system",
      base.seed);

  const std::vector<double> nrates{300, 400, 500, 600, 700, 800, 900, 1000};
  const std::vector<double> srates{3, 5, 7};

  util::Table table({"nrate($/GB)", "srate=3", "srate=5", "srate=7",
                     "network-only"});

  // Precompute all cells in parallel: rows x (3 scheduler runs + 1
  // baseline).
  std::vector<std::vector<double>> cells(nrates.size(),
                                         std::vector<double>(4, 0.0));
  bench::ParallelSweep(nrates.size() * 4, [&](std::size_t idx) {
    const std::size_t row = idx / 4;
    const std::size_t col = idx % 4;
    workload::ScenarioParams p = base;
    p.nrate_per_gb = nrates[row];
    if (col < 3) {
      p.srate_per_gb_hour = srates[col];
      cells[row][col] = bench::RunScheduler(p).final_cost;
    } else {
      cells[row][col] = bench::RunNetworkOnly(p);
    }
  });

  for (std::size_t row = 0; row < nrates.size(); ++row) {
    table.AddRow({util::Table::Num(nrates[row], 0),
                  util::Table::Num(cells[row][0], 0),
                  util::Table::Num(cells[row][1], 0),
                  util::Table::Num(cells[row][2], 0),
                  util::Table::Num(cells[row][3], 0)});
  }
  bench::EmitTable(table);

  // Shape summary the paper's prose calls out.
  const double adv_low = cells.front()[3] - cells.front()[1];
  const double adv_high = cells.back()[3] - cells.back()[1];
  const bool widens = adv_high > adv_low;
  std::cout << "IS advantage at nrate=300: " << adv_low
            << "  at nrate=1000: " << adv_high
            << (widens ? "  (widens with nrate, as in the paper)"
                       : "  (UNEXPECTED: does not widen)")
            << '\n';
  return widens ? 0 : 1;
}
