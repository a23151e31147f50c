// VorScheduler: the two-phase Video Scheduler of Sec. 3.1.
//
//   Phase 1 — Individual Video Scheduling: minimum-cost greedy schedule
//   per file, capacity ignored (IVSP-solve, Table 2).
//   Phase 2 — Integration + Storage Overflow Resolution: the per-file
//   schedules are integrated, overflows detected, and victims rescheduled
//   by heat until the schedule fits every intermediate storage
//   (SORP-solve, Table 3).
#pragma once

#include <vector>

#include "core/cost_model.hpp"
#include "core/schedule.hpp"
#include "core/sorp.hpp"
#include "media/catalog.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/result.hpp"
#include "util/thread_pool.hpp"
#include "workload/request.hpp"

namespace vor::obs {
class MetricsRegistry;
}  // namespace vor::obs

namespace vor::core {

struct SchedulerOptions {
  HeatMetric heat = HeatMetric::kTimeSpacePerCost;
  PricingOptions pricing;
  IvspOptions ivsp;
  std::size_t max_sorp_iterations = 10000;
  /// SORP region sharding (see SorpOptions::regions): 1 (default) runs the
  /// single global resolution loop; 0 = auto (one shard per route-closed
  /// neighborhood cluster); N >= 2 coalesces the topology's natural
  /// clusters to at most N before closure merging.  Shards resolve
  /// concurrently on the shared pool and reconcile serially; the solved
  /// schedule is byte-identical to the monolithic engine (DESIGN.md
  /// "Region-sharded SORP").
  std::size_t sorp_regions = 1;
  /// Worker threads shared by both phases: phase 1's per-file greedies
  /// and each SORP round's tentative victim evaluations fan out over one
  /// pool (1 = serial, 0 = hardware concurrency, N = pool of N).  The
  /// commit step stays serial and the victim reduction is deterministic,
  /// so the solved schedule is byte-identical at any thread count.
  util::ParallelOptions parallel{};
  /// Optional caller-owned metrics sink (src/obs).  When set, Solve
  /// records the span hierarchy ("solve" -> "solve/ivsp" / "solve/sorp" /
  /// "solve/sorp/round"), per-phase counters (greedy decision mix,
  /// candidates, rejections, victims), the SORP excess trajectory, and
  /// thread-pool telemetry.  Never alters the schedule; counter and
  /// series values are identical at any thread count.  nullptr (the
  /// default) disables all instrumentation at the cost of one pointer
  /// test per site.
  obs::MetricsRegistry* metrics = nullptr;
};

struct SolveOutput {
  Schedule schedule;
  /// Psi of the integrated phase-1 schedule (may be infeasible).
  util::Money phase1_cost{0.0};
  /// Psi of the final overflow-free schedule.
  util::Money final_cost{0.0};
  SorpStats sorp;
};

class VorScheduler {
 public:
  /// The topology must Validate(); the catalog must Validate().  Both,
  /// plus the router built here, are referenced for the scheduler's
  /// lifetime.
  VorScheduler(const net::Topology& topology, const media::Catalog& catalog,
               SchedulerOptions options = {});

  /// Computes a complete service schedule for one cycle of reservations.
  /// Requests must reference catalog videos and storage-node
  /// neighborhoods.
  [[nodiscard]] util::Result<SolveOutput> Solve(
      const std::vector<workload::Request>& requests) const;

  [[nodiscard]] const CostModel& cost_model() const { return cost_model_; }
  [[nodiscard]] const net::Router& router() const { return router_; }
  [[nodiscard]] const SchedulerOptions& options() const { return options_; }

 private:
  const net::Topology* topology_;
  const media::Catalog* catalog_;
  SchedulerOptions options_;
  net::Router router_;
  CostModel cost_model_;
};

}  // namespace vor::core
