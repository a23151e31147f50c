// Figure 8 — Storage charging rate vs. total cost under different network
// charging rates (Sec. 5.3, second half).
//
// Expected shape (paper): raising nrate shifts the whole curve up roughly
// linearly; the srate effect is substantial only while srate is low
// (there is a floor of unavoidable network deliveries — e.g. the first
// request in each neighborhood — that storage can never remove).
#include <vector>

#include "bench_common.hpp"
#include "util/stats.hpp"

int main() {
  using namespace vor;

  workload::ScenarioParams base;
  base.zipf_alpha = 0.271;
  base.is_capacity = util::GB(5.0);

  util::PrintBenchHeader(
      std::cout, "Figure 8",
      "Total service cost vs storage charging rate under different network\n"
      "charging rates (curves: nrate in {300, 500, 700, 900})",
      base.seed);

  const std::vector<double> srates{0, 10, 25, 50, 100, 150, 200, 250, 300};
  const std::vector<double> nrates{300, 500, 700, 900};

  util::Table table({"srate($/GBh)", "nrate=300", "nrate=500", "nrate=700",
                     "nrate=900"});
  std::vector<std::vector<double>> cells(srates.size(),
                                         std::vector<double>(nrates.size()));
  bench::ParallelSweep(srates.size() * nrates.size(), [&](std::size_t idx) {
    const std::size_t row = idx / nrates.size();
    const std::size_t col = idx % nrates.size();
    workload::ScenarioParams p = base;
    p.srate_per_gb_hour = srates[row];
    p.nrate_per_gb = nrates[col];
    cells[row][col] = bench::RunScheduler(p).final_cost;
  });
  for (std::size_t row = 0; row < srates.size(); ++row) {
    std::vector<std::string> cols{util::Table::Num(srates[row], 0)};
    for (std::size_t col = 0; col < nrates.size(); ++col) {
      cols.push_back(util::Table::Num(cells[row][col], 0));
    }
    table.AddRow(std::move(cols));
  }
  bench::EmitTable(table);

  // Paper claim: cost increases ~linearly in nrate at fixed srate.
  std::vector<double> mid_row;
  for (std::size_t col = 0; col < nrates.size(); ++col) {
    mid_row.push_back(cells[srates.size() / 2][col]);
  }
  const double corr = util::PearsonCorrelation(nrates, mid_row);
  const bool linear = corr >= 0.99;
  std::cout << "corr(cost, nrate) at srate="
            << srates[srates.size() / 2] << ": " << corr
            << (linear ? "  (~1.0 means linear, as the paper notes)\n"
                       : "  (UNEXPECTED: not linear)\n");
  return linear ? 0 : 1;
}
