// Figure 9 — User access pattern vs. intermediate storage size (Sec. 5.4).
//
// X axis: Zipf alpha 0.1..0.9; one curve per IS size in {5, 8, 11} GB.
// Expected shape (paper): total cost increases as the access pattern
// becomes less biased; the vertical gap between the small-IS and
// large-IS curves is larger when the pattern is more skewed (small
// alpha) — big caches pay off most when everyone wants the same titles.
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace vor;

  workload::ScenarioParams base;
  base.nrate_per_gb = 500.0;
  base.srate_per_gb_hour = 5.0;

  util::PrintBenchHeader(
      std::cout, "Figure 9",
      "Total service cost vs zipf alpha (curves: IS size in {5, 8, 11} GB)",
      base.seed);

  const std::vector<double> alphas{0.1, 0.2, 0.271, 0.4, 0.5, 0.6, 0.7, 0.8,
                                   0.9};
  const std::vector<double> sizes{5, 8, 11};
  // Each (alpha, seed) pair draws a fresh request trace; averaging over
  // several traces recovers the smooth curve the paper plots.
  constexpr std::size_t kSeeds = 7;

  util::Table table({"alpha", "IS=5GB", "IS=8GB", "IS=11GB"});
  // One slot per (row, col, seed): shards never share a slot, so the
  // sweep is race free; reduce to per-cell means afterwards.
  std::vector<double> slots(alphas.size() * sizes.size() * kSeeds, 0.0);
  bench::ParallelSweep(slots.size(), [&](std::size_t idx) {
    const std::size_t seed_index = idx % kSeeds;
    const std::size_t cell = idx / kSeeds;
    workload::ScenarioParams p = base;
    p.zipf_alpha = alphas[cell / sizes.size()];
    p.is_capacity = util::GB(sizes[cell % sizes.size()]);
    p.seed = base.seed + seed_index;
    slots[idx] = bench::RunScheduler(p).final_cost;
  });
  std::vector<std::vector<double>> cells(
      alphas.size(), std::vector<double>(sizes.size(), 0.0));
  for (std::size_t idx = 0; idx < slots.size(); ++idx) {
    const std::size_t cell = idx / kSeeds;
    cells[cell / sizes.size()][cell % sizes.size()] +=
        slots[idx] / static_cast<double>(kSeeds);
  }
  for (std::size_t row = 0; row < alphas.size(); ++row) {
    std::vector<std::string> cols{util::Table::Num(alphas[row], 3)};
    for (std::size_t col = 0; col < sizes.size(); ++col) {
      cols.push_back(util::Table::Num(cells[row][col], 0));
    }
    table.AddRow(std::move(cols));
  }
  bench::EmitTable(table);

  const double gap_skewed = cells.front()[0] - cells.front()[2];
  const double gap_flat = cells.back()[0] - cells.back()[2];
  const bool narrows = gap_skewed >= gap_flat;
  std::cout << "IS-size gap (5GB - 11GB) at alpha=0.1: " << gap_skewed
            << "   at alpha=0.9: " << gap_flat
            << (narrows ? "  (larger when skewed, as in the paper)\n"
                        : "  (UNEXPECTED)\n");
  return narrows ? 0 : 1;
}
