// Link bandwidth caps (the paper's Sec. 6 future work).
//
// Sweeps the per-link bandwidth cap and reports how the scheduler, which
// honours the caps a topology declares, trades cost for feasibility,
// against a cap-oblivious solve of the same topology with its caps
// stripped, measured against the caps afterwards.
#include <vector>

#include "bench_common.hpp"
#include "storage/load.hpp"

int main() {
  using namespace vor;

  workload::ScenarioParams params;
  params.is_capacity = util::GB(8.0);
  params.nrate_per_gb = 500.0;
  params.srate_per_gb_hour = 5.0;

  util::PrintBenchHeader(
      std::cout, "Bandwidth extension",
      "Link bandwidth caps: cost and feasibility of the bandwidth-aware\n"
      "scheduler vs the unconstrained one (caps in concurrent 6Mbps-ish\n"
      "streams per link)",
      params.seed);

  // A typical title streams size/playback ~ 0.58 MB/s.
  const double one_stream = 3.3e9 / (95.0 * 60.0);

  util::Table table({"cap(streams)", "aware cost", "aware forced",
                     "aware overloads", "oblivious cost",
                     "oblivious overloads", "oblivious worst util"});

  const std::vector<double> caps{2, 4, 8, 16, 1e9};
  for (const double cap : caps) {
    workload::Scenario scenario = workload::MakeScenario(params);
    scenario.topology.SetUniformBandwidthCap(
        util::BytesPerSecond{cap * one_stream});

    core::VorScheduler aware(scenario.topology, scenario.catalog);
    const auto a = aware.Solve(scenario.requests);
    if (!a.ok()) {
      std::cerr << a.error().message << '\n';
      return 1;
    }
    const storage::StreamReport a_streams = storage::MeasureStreams(
        a->schedule, scenario.topology, scenario.catalog);

    // Cap-oblivious: solve with the caps stripped, then measure overload
    // against the capped topology after the fact.
    net::Topology uncapped = scenario.topology;
    uncapped.SetUniformBandwidthCap(util::BytesPerSecond{0.0});
    core::VorScheduler plain(uncapped, scenario.catalog);
    const auto p = plain.Solve(scenario.requests);
    if (!p.ok()) {
      std::cerr << p.error().message << '\n';
      return 1;
    }
    const storage::StreamReport p_streams = storage::MeasureStreams(
        p->schedule, scenario.topology, scenario.catalog);

    table.AddRow({cap > 1e8 ? "inf" : util::Table::Num(cap, 0),
                  util::Table::Num(a->final_cost.value(), 0),
                  std::to_string(a_streams.forced_requests),
                  std::to_string(a_streams.overloaded_links),
                  util::Table::Num(p->final_cost.value(), 0),
                  std::to_string(p_streams.overloaded_links),
                  util::Table::Num(p_streams.worst_utilization, 2)});
  }
  bench::EmitTable(table);
  std::cout << "Tighter caps push the aware scheduler toward (slightly\n"
            << "costlier) cache-heavy schedules while the oblivious one\n"
            << "overloads links it never looks at.\n";
  return 0;
}
