// Ablation bench — quantifies the design choices DESIGN.md calls out:
//
//   A. heat metric (M1..M4) under tight capacity;
//   B. remote caching / remote cache service on vs off;
//   C. per-hop vs end-to-end pricing basis;
//   D. caching disabled entirely (the network-only baseline).
//
// Each row reports the final feasible cost on the same tight operating
// point (IS = 5 GB, nrate = 1000, srate = 3, alpha = 0.271).
#include <vector>

#include "bench_common.hpp"
#include "core/heat.hpp"
#include "core/ivsp.hpp"
#include "core/overflow.hpp"
#include "core/sorp.hpp"
#include "net/routing.hpp"

int main() {
  using namespace vor;
  using core::HeatMetric;

  workload::ScenarioParams params;
  params.is_capacity = util::GB(5.0);
  params.nrate_per_gb = 1000.0;
  params.srate_per_gb_hour = 3.0;
  params.zipf_alpha = 0.271;

  util::PrintBenchHeader(
      std::cout, "Ablation",
      "Design-choice ablations on a tight operating point\n"
      "(IS=5GB, nrate=1000, srate=3, alpha=0.271)",
      params.seed);

  util::Table table({"variant", "final cost", "phase1 cost", "victims"});
  auto add = [&](const std::string& name, const bench::RunResult& r) {
    table.AddRow({name, util::Table::Num(r.final_cost, 0),
                  util::Table::Num(r.phase1_cost, 0),
                  std::to_string(r.victims)});
  };

  // A. Heat metrics.
  for (const auto& [metric, name] :
       {std::pair{HeatMetric::kImprovedLength, "heat=M1 improved-length"},
        std::pair{HeatMetric::kLengthPerCost, "heat=M2 length/cost"},
        std::pair{HeatMetric::kTimeSpace, "heat=M3 time-space"},
        std::pair{HeatMetric::kTimeSpacePerCost, "heat=M4 time-space/cost"}}) {
    core::SchedulerOptions options;
    options.heat = metric;
    add(name, bench::RunScheduler(params, options));
  }

  // B. Caching scope restrictions.
  {
    core::SchedulerOptions options;
    options.ivsp.allow_remote_caching = false;
    add("local-only cache placement", bench::RunScheduler(params, options));
  }
  {
    core::SchedulerOptions options;
    options.ivsp.allow_remote_caching = false;
    options.ivsp.allow_remote_cache_service = false;
    add("local-only placement+service", bench::RunScheduler(params, options));
  }

  // C. Pricing basis.
  {
    core::SchedulerOptions options;
    options.pricing.basis = core::PricingBasis::kEndToEnd;
    options.pricing.e2e_discount = 0.85;
    add("end-to-end pricing (disc 0.85)",
        bench::RunScheduler(params, options));
  }

  // D. No caching at all: every request straight from the warehouse, so
  // nothing overflows and phase 2 has no victims.
  {
    const double cost = bench::RunNetworkOnly(params);
    add("caching disabled", bench::RunResult{cost, cost});
  }

  bench::EmitTable(table);

  // E. Phase-2 mechanism ablations need the SORP layer directly.
  {
    const workload::Scenario scenario = workload::MakeScenario(params);
    const net::Router router(scenario.topology);
    const core::CostModel cm(scenario.topology, router, scenario.catalog);
    const core::Schedule phase1 =
        core::IvspSolve(scenario.requests, cm, core::IvspOptions{});

    util::Table sorp_table({"phase-2 variant", "final cost", "victims",
                            "evaluations", "residual overflows"});
    auto run_sorp = [&](const std::string& name, core::SorpOptions options) {
      core::Schedule copy = phase1;
      const core::SorpStats stats =
          core::SorpSolve(copy, scenario.requests, cm, options);
      sorp_table.AddRow(
          {name, util::Table::Num(stats.cost_after.value(), 0),
           std::to_string(stats.victims_rescheduled),
           std::to_string(stats.evaluations),
           std::to_string(core::DetectOverflows(copy, cm).size())});
    };
    run_sorp("heat M4 + rejective (paper)", core::SorpOptions{});
    {
      core::SorpOptions o;
      o.victim_policy = core::VictimPolicy::kFirstContributor;
      run_sorp("first-contributor victim", o);
    }
    {
      core::SorpOptions o;
      o.capacity_aware_reschedule = false;
      run_sorp("non-rejective reschedule", o);
    }
    sorp_table.PrintPretty(std::cout);
    std::cout << "\nThe non-rejective variant shows why Sec. 4.4 checks\n"
                 "capacity: without it, victim reschedules re-create\n"
                 "overflows and the loop stalls with residual excess.\n";
  }

  std::cout << "\nExpected ordering: M4 <= other heat metrics;\n"
            << "restricting cache scope raises cost; disabling caching "
               "raises it most.\n";
  return 0;
}
