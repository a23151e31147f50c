// heat_metrics: drives the phase-2 machinery directly — detect storage
// overflows in an integrated phase-1 schedule, inspect the candidate
// victims under each of the paper's four heat metrics, and compare the
// resolved schedules.  A worked tour of Sec. 4 of the paper.
//
//   $ ./heat_metrics
#include <iostream>

#include "vor/vor.hpp"

int main() {
  using namespace vor;

  // A deliberately tight operating point so phase 1 overflows.
  workload::ScenarioParams params;
  params.is_capacity = util::GB(5.0);
  params.nrate_per_gb = 1000.0;
  params.srate_per_gb_hour = 3.0;
  const workload::Scenario scenario = workload::MakeScenario(params);

  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);

  // ---- phase 1: individual video scheduling, capacity ignored ----------
  core::Schedule schedule =
      core::IvspSolve(scenario.requests, cm, core::IvspOptions{});
  std::cout << "phase-1 cost: $" << cm.TotalCost(schedule).value() << '\n';

  const auto overflows = core::DetectOverflows(schedule, cm);
  std::cout << "storage overflows detected: " << overflows.size() << "\n\n";

  // ---- inspect the first overflow window -------------------------------
  if (!overflows.empty()) {
    const core::OverflowWindow& of = overflows.front();
    std::cout << "first overflow: " << scenario.topology.node(of.node).name
              << " over [" << of.window.start.value() / 3600.0 << "h, "
              << of.window.end.value() / 3600.0 << "h], peak "
              << of.peak_bytes / 1e9 << " GB vs capacity "
              << of.capacity_bytes / 1e9 << " GB, "
              << of.contributors.size() << " contributing residencies\n";
    std::cout << "victim candidates (improvement metrics per Eqs. 5/8):\n";
    for (const core::ResidencyRef& ref : of.contributors) {
      const core::FileSchedule& file = schedule.files[ref.file_index];
      const core::Residency& c = file.residencies[ref.residency_index];
      std::cout << "  " << scenario.catalog.video(file.video).title
                << ": chi="
                << core::ImprovedLength(c, file.video, of, cm) / 3600.0
                << "h, dS="
                << core::TimeSpaceImprovement(c, file.video, of, cm) / 3.6e12
                << " GB*h\n";
    }
    std::cout << '\n';
  }

  // ---- resolve under each heat metric -----------------------------------
  util::Table table({"heat metric", "final cost ($)", "victims",
                     "evaluations", "cost increase"});
  for (const auto metric :
       {core::HeatMetric::kImprovedLength, core::HeatMetric::kLengthPerCost,
        core::HeatMetric::kTimeSpace, core::HeatMetric::kTimeSpacePerCost}) {
    core::Schedule copy = schedule;
    core::SorpOptions options;
    options.heat = metric;
    const core::SorpStats stats =
        core::SorpSolve(copy, scenario.requests, cm, options);
    table.AddRow(
        {core::ToString(metric), util::Table::Num(stats.cost_after.value(), 0),
         std::to_string(stats.victims_rescheduled),
         std::to_string(stats.evaluations),
         util::Table::Num(100.0 * (stats.cost_after - stats.cost_before)
                              .value() / stats.cost_before.value(), 2) + "%"});
  }
  table.PrintPretty(std::cout);
  std::cout << "\nThe per-cost metrics (Eq. 9 and Eq. 11) should yield the\n"
               "cheapest resolved schedules — Table 5 of the paper.\n";

  // ---- what did resolution actually change? (M4 run) --------------------
  core::Schedule resolved = schedule;
  core::SorpOptions m4;
  core::SorpSolve(resolved, scenario.requests, cm, m4);
  const core::ScheduleDiff diff =
      core::DiffSchedules(schedule, resolved, cm);
  std::cout << '\n' << diff.ToText(scenario.topology);
  return 0;
}
