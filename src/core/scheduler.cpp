#include "core/scheduler.hpp"

#include <memory>

#include "core/ivsp.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace vor::core {

VorScheduler::VorScheduler(const net::Topology& topology,
                           const media::Catalog& catalog,
                           SchedulerOptions options)
    : topology_(&topology),
      catalog_(&catalog),
      options_(options),
      router_(topology),
      cost_model_(topology, router_, catalog, options.pricing) {}

util::Result<SolveOutput> VorScheduler::Solve(
    const std::vector<workload::Request>& requests) const {
  if (const util::Status s = topology_->Validate(); !s.ok()) return s.error();
  if (const util::Status s = catalog_->Validate(); !s.ok()) return s.error();
  for (const workload::Request& r : requests) {
    if (!catalog_->Contains(r.video)) {
      return util::NotFound("request for unknown video id " +
                            std::to_string(r.video));
    }
    if (!topology_->IsStorage(r.neighborhood)) {
      return util::InvalidArgument(
          "request neighborhood is not an intermediate storage node");
    }
  }

  SolveOutput out;
  obs::MetricsRegistry* metrics = options_.metrics;
  const obs::ScopedSpan solve_span(metrics, "solve");
  obs::Add(metrics, "solve.requests", requests.size());
  // One pool serves both phases: phase 1's per-file greedies and each
  // SORP round's tentative victim evaluations.
  std::unique_ptr<util::ThreadPool> pool;
  if (options_.parallel.Resolve() > 1) {
    pool = std::make_unique<util::ThreadPool>(options_.parallel.Resolve());
  }
  out.schedule =
      IvspSolve(requests, cost_model_, options_.ivsp, pool.get(), metrics);
  out.phase1_cost = cost_model_.TotalCost(out.schedule);

  SorpOptions sorp_options;
  sorp_options.heat = options_.heat;
  sorp_options.ivsp = options_.ivsp;
  sorp_options.max_iterations = options_.max_sorp_iterations;
  sorp_options.regions = options_.sorp_regions;
  sorp_options.parallel = options_.parallel;
  sorp_options.pool = pool.get();
  sorp_options.metrics = metrics;
  out.sorp = SorpSolve(out.schedule, requests, cost_model_, sorp_options);
  out.final_cost = out.sorp.cost_after;
  // The shared pool served both phases; fold its lifetime counters in.
  if (pool != nullptr) obs::ExportPoolTelemetry(metrics, *pool);
  return out;
}

}  // namespace vor::core
