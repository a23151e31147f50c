#include "baseline/exhaustive.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>

#include "workload/generator.hpp"

namespace vor::baseline {

namespace {

using core::CostModel;
using core::Delivery;
using core::FileSchedule;
using core::Residency;

struct SearchState {
  std::vector<Residency> caches;
  std::vector<Delivery> deliveries;
  /// node -> latest stream pass (time, origin).  A later anchor strictly
  /// dominates an earlier one (same services, shorter caching interval),
  /// so only the latest needs to be branched on.
  std::map<net::NodeId, std::pair<util::Seconds, net::NodeId>> anchors;
  double cost = 0.0;
};

class Search {
 public:
  Search(media::VideoId video, const std::vector<workload::Request>& requests,
         const std::vector<std::size_t>& indices, const CostModel& cm,
         const ExhaustiveOptions& options)
      : video_(video),
        requests_(requests),
        indices_(indices),
        cm_(cm),
        options_(options),
        vw_(cm.topology().warehouse()) {}

  ExhaustiveResult Run() {
    best_cost_ = std::numeric_limits<double>::infinity();
    SearchState state;
    Recurse(0, state);
    ExhaustiveResult result;
    result.cost = util::Money{best_cost_};
    result.schedule.video = video_;
    result.schedule.deliveries = std::move(best_.deliveries);
    result.schedule.residencies = std::move(best_.caches);
    result.complete = explored_ <= options_.max_nodes;
    result.explored_nodes = explored_;
    return result;
  }

 private:
  void RecordDelivery(SearchState& state, net::NodeId origin,
                      const workload::Request& req, std::size_t request_index) {
    Delivery d;
    d.route = cm_.router().CheapestPath(origin, req.neighborhood).nodes;
    d.start = req.start_time;
    d.request_index = request_index;
    for (const net::NodeId n : d.route) {
      if (!cm_.topology().IsStorage(n)) continue;
      auto& a = state.anchors[n];
      if (a.second == net::kInvalidNode || req.start_time >= a.first) {
        a = {req.start_time, origin};
      }
    }
    state.deliveries.push_back(std::move(d));
  }

  void Recurse(std::size_t depth, const SearchState& state) {
    if (++explored_ > options_.max_nodes) return;
    if (state.cost >= best_cost_) return;  // bound
    if (depth == indices_.size()) {
      best_cost_ = state.cost;
      best_ = state;
      return;
    }
    const std::size_t request_index = indices_[depth];
    const workload::Request& req = requests_[request_index];
    const double bytes = cm_.StreamBytes(video_).value();

    // Branch (A): direct from the warehouse.
    {
      SearchState next = state;
      next.cost += cm_.RouteRate(vw_, req.neighborhood).value() * bytes;
      RecordDelivery(next, vw_, req, request_index);
      Recurse(depth + 1, next);
    }

    // Branch (B): extend an existing cache.
    for (std::size_t j = 0; j < state.caches.size(); ++j) {
      const Residency& cache = state.caches[j];
      SearchState next = state;
      Residency& mutated = next.caches[j];
      const double before =
          cm_.ResidencyCostAt(cache.location, video_, cache.t_start,
                              cache.t_last)
              .value();
      mutated.t_last = std::max(mutated.t_last, req.start_time);
      mutated.services.push_back(request_index);
      const double after =
          cm_.ResidencyCostAt(cache.location, video_, mutated.t_start,
                              mutated.t_last)
              .value();
      next.cost += (after - before) +
                   cm_.RouteRate(cache.location, req.neighborhood).value() * bytes;
      RecordDelivery(next, cache.location, req, request_index);
      Recurse(depth + 1, next);
    }

    // Branch (C): open a new cache at any anchored IS.
    for (const auto& [node, anchor] : state.anchors) {
      const bool already_cached =
          std::any_of(state.caches.begin(), state.caches.end(),
                      [node = node](const Residency& c) {
                        return c.location == node;
                      });
      if (already_cached) continue;
      SearchState next = state;
      Residency cache;
      cache.location = node;
      cache.source = anchor.second;
      cache.t_start = anchor.first;
      cache.t_last = req.start_time;
      cache.services = {request_index};
      next.cost +=
          cm_.ResidencyCostAt(node, video_, cache.t_start, cache.t_last)
              .value() +
          cm_.RouteRate(node, req.neighborhood).value() * bytes;
      next.caches.push_back(std::move(cache));
      RecordDelivery(next, node, req, request_index);
      Recurse(depth + 1, next);
    }
  }

  media::VideoId video_;
  const std::vector<workload::Request>& requests_;
  const std::vector<std::size_t>& indices_;
  const CostModel& cm_;
  const ExhaustiveOptions& options_;
  net::NodeId vw_;

  double best_cost_ = std::numeric_limits<double>::infinity();
  SearchState best_;
  std::size_t explored_ = 0;
};

}  // namespace

ExhaustiveResult ExhaustiveFileSchedule(
    media::VideoId video, const std::vector<workload::Request>& requests,
    const std::vector<std::size_t>& indices, const core::CostModel& cost_model,
    const ExhaustiveOptions& options) {
  Search search(video, requests, indices, cost_model, options);
  return search.Run();
}

ExhaustiveResult ExhaustiveSchedule(
    const std::vector<workload::Request>& requests,
    const core::CostModel& cost_model, const ExhaustiveOptions& options) {
  ExhaustiveResult total;
  total.cost = util::Money{0.0};
  for (const auto& [video, indices] : workload::GroupByVideo(requests)) {
    ExhaustiveResult file =
        ExhaustiveFileSchedule(video, requests, indices, cost_model, options);
    total.cost += file.cost;
    total.complete = total.complete && file.complete;
    total.explored_nodes += file.explored_nodes;
    // Aggregate result keeps only the cost; per-file schedules are merged
    // into a flat schedule for callers that need it.
    for (auto& d : file.schedule.deliveries) {
      total.schedule.deliveries.push_back(std::move(d));
    }
    for (auto& c : file.schedule.residencies) {
      total.schedule.residencies.push_back(std::move(c));
    }
  }
  return total;
}

}  // namespace vor::baseline
