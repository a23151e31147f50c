// Figure 6 — Network charging rate under different access patterns
// (Sec. 5.2, second half).
//
// Paper setting: IS size = 5 GB; one curve per Zipf alpha in
// {0.1, 0.271, 0.5, 0.7}.  Expected shape: cost grows with nrate for all
// curves, and for the same parameters the total cost increases when the
// requests are more evenly distributed (larger alpha).
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace vor;

  workload::ScenarioParams base;
  base.is_capacity = util::GB(5.0);
  base.srate_per_gb_hour = 5.0;

  util::PrintBenchHeader(
      std::cout, "Figure 6",
      "Total service cost vs network charging rate under different user\n"
      "access patterns (curves: zipf alpha in {0.1, 0.271, 0.5, 0.7})",
      base.seed);

  const std::vector<double> nrates{300, 400, 500, 600, 700, 800, 900, 1000};
  const std::vector<double> alphas{0.1, 0.271, 0.5, 0.7};

  util::Table table({"nrate($/GB)", "alpha=0.1", "alpha=0.271", "alpha=0.5",
                     "alpha=0.7"});
  std::vector<std::vector<double>> cells(nrates.size(),
                                         std::vector<double>(alphas.size()));
  bench::ParallelSweep(nrates.size() * alphas.size(), [&](std::size_t idx) {
    const std::size_t row = idx / alphas.size();
    const std::size_t col = idx % alphas.size();
    workload::ScenarioParams p = base;
    p.nrate_per_gb = nrates[row];
    p.zipf_alpha = alphas[col];
    cells[row][col] = bench::RunScheduler(p).final_cost;
  });

  for (std::size_t row = 0; row < nrates.size(); ++row) {
    std::vector<std::string> cols{util::Table::Num(nrates[row], 0)};
    for (std::size_t col = 0; col < alphas.size(); ++col) {
      cols.push_back(util::Table::Num(cells[row][col], 0));
    }
    table.AddRow(std::move(cols));
  }
  bench::EmitTable(table);

  bool ordered = true;
  for (std::size_t row = 0; row < nrates.size(); ++row) {
    for (std::size_t col = 1; col < alphas.size(); ++col) {
      ordered &= cells[row][col] >= cells[row][col - 1];
    }
  }
  std::cout << (ordered
                    ? "Less biased access costs more at every nrate, as in "
                      "the paper.\n"
                    : "UNEXPECTED: alpha ordering violated somewhere.\n");
  return ordered ? 0 : 1;
}
