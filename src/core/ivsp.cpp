#include "core/ivsp.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <limits>
#include <optional>
#include <span>

#include "obs/metrics.hpp"
#include "workload/generator.hpp"

namespace vor::core {

bool ConstraintSet::ForbidsResidency(net::NodeId node,
                                     util::Interval support) const {
  for (const auto& [fnode, fwindow] : forbidden) {
    if (fnode == node && util::Overlaps(fwindow, support)) return true;
  }
  return false;
}

namespace {

/// A stream of this video passed through a node at `time`, originating at
/// `origin`; a cache opened here can copy its blocks from that stream.
struct Anchor {
  util::Seconds time{0.0};
  net::NodeId origin = net::kInvalidNode;
};

/// Candidate kinds mirror the paper's three update choices.
enum class CandidateKind : std::uint8_t { kDirect, kExtend, kNewCache };

struct Candidate {
  CandidateKind kind = CandidateKind::kDirect;
  util::Money cost{std::numeric_limits<double>::infinity()};
  /// kExtend: index into `caches`; kNewCache: the caching node.
  std::size_t cache_index = 0;
  net::NodeId cache_node = net::kInvalidNode;
  Anchor anchor;

  [[nodiscard]] bool Feasible() const {
    return std::isfinite(cost.value());
  }
};

class GreedyRun {
 public:
  GreedyRun(media::VideoId video, const std::vector<workload::Request>& requests,
            const CostModel& cm, const IvspOptions& options,
            const ConstraintSet* constraints)
      : video_(video),
        requests_(requests),
        cm_(cm),
        options_(options),
        constraints_(constraints),
        playback_(cm.catalog().video(video).playback),
        vw_(cm.topology().warehouse()),
        stream_bytes_(cm.StreamBytes(video)),
        cached_nodes_(cm.topology().node_count(), 0),
        load_(constraints != nullptr ? constraints->load : nullptr),
        anchors_(cm.topology().node_count()) {
    // An uncapped load checks no route: RouteAllowed runs for every
    // candidate, so it must cost nothing there.
    if (load_ != nullptr && load_->load().holds_streams()) {
      streams_.emplace(*load_);
    }
  }

  /// Takes `plan` over, serves `indices` after its deliveries, and hands
  /// the extended plan back.  The state a run keeps beside its plan (the
  /// anchors and cached nodes) is rebuilt from the plan's deliveries and
  /// caches.
  void Extend(FileSchedule& plan, const std::vector<std::size_t>& indices) {
    assert(plan.video == video_);
    assert(constraints_ == nullptr || plan.deliveries.empty());
    deliveries_ = std::move(plan.deliveries);
    caches_ = std::move(plan.residencies);
    // A fresh plan gets one delivery per request, allocated once.  A plan
    // extended in place grows geometrically instead: reserving its exact
    // count would reallocate it on every extension.
    if (deliveries_.empty()) deliveries_.reserve(indices.size());
    for (const Delivery& d : deliveries_) AnchorAlong(d);
    for (const Residency& cache : caches_) cached_nodes_[cache.location] = 1;
    const util::Money ceiling =
        constraints_ != nullptr
            ? constraints_->ceiling
            : util::Money{std::numeric_limits<double>::infinity()};
    for (const std::size_t idx : indices) {
      const workload::Request& req = requests_[idx];
      assert(req.video == video_);
      assert(deliveries_.empty() ||
             workload::ChronologicalOrder{&requests_}(
                 deliveries_.back().request_index, idx));
      ServeRequest(idx, req);
      if (spent_ > ceiling) break;
    }
    plan.deliveries = std::move(deliveries_);
    plan.residencies = std::move(caches_);
  }

  [[nodiscard]] const GreedyStats& stats() const { return stats_; }
  [[nodiscard]] util::Money spent() const { return spent_; }

 private:
  /// Checks a hypothetical residency [t_start, t_last] at `node` against
  /// forbidden windows and capacity.  `replacing` points at the current
  /// residency being extended (so its own reservation is not double
  /// counted), or nullptr for a brand-new cache.
  bool ResidencyAllowed(net::NodeId node, util::Seconds t_start,
                        util::Seconds t_last) const {
    if (constraints_ == nullptr) return true;
    const util::Interval support{t_start, t_last + playback_};
    if (constraints_->ForbidsResidency(node, support)) {
      ++stats_.rejected_forbidden;
      return false;
    }
    if (load_ == nullptr) return true;
    Residency probe;
    probe.location = node;
    probe.t_start = t_start;
    probe.t_last = t_last;
    if (load_->ResidencyFits(node, cm_.OccupancyPiece(probe, video_, 0))) {
      return true;
    }
    ++stats_.rejected_capacity;
    return false;
  }

  bool RouteAllowed(std::span<const net::NodeId> route,
                    util::Seconds t) const {
    if (!streams_.has_value() || streams_->RouteFits(route, t, video_)) {
      return true;
    }
    ++stats_.rejected_route;
    return false;
  }

  void ConsiderDirect(const workload::Request& req, Candidate& best) const {
    ++stats_.candidates;
    const auto& path = cm_.router().CheapestPath(vw_, req.neighborhood);
    if (!RouteAllowed(path.nodes, req.start_time)) return;
    const util::Money cost = cm_.RouteRate(vw_, req.neighborhood) * stream_bytes_;
    if (cost < best.cost) {
      best = Candidate{CandidateKind::kDirect, cost, 0, net::kInvalidNode, {}};
    }
  }

  void ConsiderExtensions(const workload::Request& req, Candidate& best) const {
    for (std::size_t j = 0; j < caches_.size(); ++j) {
      const Residency& cache = caches_[j];
      if (!options_.allow_remote_cache_service &&
          cache.location != req.neighborhood) {
        continue;
      }
      ++stats_.candidates;
      assert(cache.t_start <= req.start_time);
      const util::Seconds new_last =
          std::max(cache.t_last, req.start_time);
      if (!ResidencyAllowed(cache.location, cache.t_start, new_last)) continue;
      const auto& path =
          cm_.router().CheapestPath(cache.location, req.neighborhood);
      if (!RouteAllowed(path.nodes, req.start_time)) continue;
      const util::Money storage_delta =
          cm_.ResidencyCostAt(cache.location, video_, cache.t_start, new_last) -
          cm_.ResidencyCostAt(cache.location, video_, cache.t_start,
                              cache.t_last);
      const util::Money network =
          cm_.RouteRate(cache.location, req.neighborhood) * stream_bytes_;
      const util::Money cost = storage_delta + network;
      if (cost < best.cost) {
        best.kind = CandidateKind::kExtend;
        best.cost = cost;
        best.cache_index = j;
        best.cache_node = cache.location;
      }
    }
  }

  void ConsiderNewCaches(const workload::Request& req, Candidate& best) const {
    for (const net::NodeId node : anchored_) {
      if (IsCached(node)) continue;  // extension candidate covers it
      const Anchor& anchor = anchors_[node];
      if (!options_.allow_remote_caching && node != req.neighborhood) continue;
      ++stats_.candidates;
      assert(anchor.time <= req.start_time);
      if (!ResidencyAllowed(node, anchor.time, req.start_time)) continue;
      const auto& path = cm_.router().CheapestPath(node, req.neighborhood);
      if (!RouteAllowed(path.nodes, req.start_time)) continue;
      const util::Money storage =
          cm_.ResidencyCostAt(node, video_, anchor.time, req.start_time);
      const util::Money network =
          cm_.RouteRate(node, req.neighborhood) * stream_bytes_;
      const util::Money cost = storage + network;
      if (cost < best.cost) {
        best.kind = CandidateKind::kNewCache;
        best.cost = cost;
        best.cache_node = node;
        best.anchor = anchor;
      }
    }
  }

  [[nodiscard]] bool IsCached(net::NodeId node) const {
    return cached_nodes_[node] != 0;
  }

  void RecordDelivery(net::NodeId origin, const workload::Request& req,
                      std::size_t request_index) {
    Delivery d;
    d.route = cm_.router().CheapestPath(origin, req.neighborhood).nodes;
    d.start = req.start_time;
    d.request_index = request_index;
    AnchorAlong(d);
    if (streams_.has_value()) streams_->AddStream(d, video_);
    deliveries_.push_back(std::move(d));
  }

  /// Every IS a stream touches becomes a (re-)anchoring opportunity: a
  /// later request may open a cache there that copies the stream's
  /// blocks.  The latest anchor is kept — a shorter caching interval is
  /// always cheaper for the same services.
  void AnchorAlong(const Delivery& d) {
    for (const net::NodeId n : d.route) {
      if (!cm_.topology().IsStorage(n)) continue;
      Anchor& a = anchors_[n];
      const bool first = a.origin == net::kInvalidNode;
      if (first) anchored_.insert(std::ranges::upper_bound(anchored_, n), n);
      if (first || d.start >= a.time) a = Anchor{d.start, d.origin()};
    }
  }

  void ServeRequest(std::size_t request_index, const workload::Request& req) {
    ++stats_.requests;
    Candidate best;
    ConsiderDirect(req, best);
    ConsiderExtensions(req, best);
    ConsiderNewCaches(req, best);
    // Direct delivery is only infeasible when the stream caps veto even
    // the VW route; in that case fall back to direct delivery anyway
    // (every reservation must be honoured) — storage::MeasureStreams
    // reports the violation.
    if (!best.Feasible()) {
      ++stats_.forced_direct;
      best = Candidate{CandidateKind::kDirect,
                       cm_.RouteRate(vw_, req.neighborhood) * stream_bytes_,
                       0, net::kInvalidNode, {}};
    }
    spent_ += best.cost;

    switch (best.kind) {
      case CandidateKind::kDirect: {
        ++stats_.direct;
        RecordDelivery(vw_, req, request_index);
        break;
      }
      case CandidateKind::kExtend: {
        ++stats_.extend;
        Residency& cache = caches_[best.cache_index];
        cache.t_last = std::max(cache.t_last, req.start_time);
        cache.services.push_back(request_index);
        RecordDelivery(cache.location, req, request_index);
        break;
      }
      case CandidateKind::kNewCache: {
        ++stats_.new_cache;
        Residency cache;
        cache.location = best.cache_node;
        cache.source = best.anchor.origin;
        cache.t_start = best.anchor.time;
        cache.t_last = req.start_time;
        cache.services.push_back(request_index);
        caches_.push_back(std::move(cache));
        cached_nodes_[best.cache_node] = 1;
        RecordDelivery(best.cache_node, req, request_index);
        break;
      }
    }
  }

  media::VideoId video_;
  const std::vector<workload::Request>& requests_;
  const CostModel& cm_;
  const IvspOptions& options_;
  const ConstraintSet* constraints_;
  util::Seconds playback_;
  net::NodeId vw_;
  /// cm_.StreamBytes(video_), hoisted: identical for every candidate.
  util::Bytes stream_bytes_;
  /// Nodes with an open cache (O(1) IsCached; mirrors caches_ inserts).
  std::vector<char> cached_nodes_;
  /// The other files' load (null: unconstrained), and on a capped
  /// topology this run's own streams over it.
  const storage::LoadView* load_;
  std::optional<storage::LoadDelta> streams_;

  std::vector<Delivery> deliveries_;
  std::vector<Residency> caches_;
  /// Each node's latest anchor (origin kInvalidNode: none yet), and the
  /// anchored nodes, ascending: candidates come in node order, a
  /// deterministic tie-break.
  std::vector<Anchor> anchors_;
  std::vector<net::NodeId> anchored_;
  // Tallies only; mutable so the const Consider*/allowed helpers can count
  // the rejections they decide.
  mutable GreedyStats stats_;
  /// The chosen updates' summed cost.
  util::Money spent_{0.0};
};

}  // namespace

FileSchedule ScheduleFileGreedy(media::VideoId video,
                                const std::vector<workload::Request>& requests,
                                const std::vector<std::size_t>& indices,
                                const CostModel& cost_model,
                                const IvspOptions& options,
                                const ConstraintSet* constraints,
                                GreedyStats* stats) {
  FileSchedule plan;
  plan.video = video;
  ExtendFileGreedy(plan, requests, indices, cost_model, options, constraints,
                   stats);
  return plan;
}

util::Money ExtendFileGreedy(FileSchedule& plan,
                             const std::vector<workload::Request>& requests,
                             const std::vector<std::size_t>& indices,
                             const CostModel& cost_model,
                             const IvspOptions& options,
                             const ConstraintSet* constraints,
                             GreedyStats* stats) {
  GreedyRun run(plan.video, requests, cost_model, options, constraints);
  run.Extend(plan, indices);
  if (stats != nullptr) *stats = run.stats();
  return run.spent();
}

PlanCut CutPlan(FileSchedule& plan, std::size_t kept,
                const std::vector<workload::Request>& requests) {
  assert(kept <= plan.deliveries.size());
  PlanCut cut;
  cut.kept_deliveries_ = kept;
  const auto split =
      plan.deliveries.begin() + static_cast<std::ptrdiff_t>(kept);
  cut.deliveries_.assign(std::make_move_iterator(split),
                         std::make_move_iterator(plan.deliveries.end()));
  plan.deliveries.erase(split, plan.deliveries.end());
  // The kept requests are those before the first cut delivery's.  A cut
  // at 0 keeps none, whatever order (or unbound first delivery) a
  // restored plan lists, so it takes every cache.
  const workload::ChronologicalOrder order{&requests};
  const auto is_kept = [&](std::size_t r) {
    return kept > 0 && (cut.deliveries_.empty() ||
                        order(r, cut.deliveries_.front().request_index));
  };
  for (Residency& cache : plan.residencies) {
    const auto end = std::partition_point(cache.services.begin(),
                                          cache.services.end(), is_kept);
    // A cache opened after the split is not open yet, nor is any cache
    // after it: caches are opened in service order.
    if (end == cache.services.begin()) break;
    PlanCut::KeptCache& kept_cache = cut.kept_.emplace_back();
    kept_cache.services =
        static_cast<std::size_t>(end - cache.services.begin());
    kept_cache.t_last = cache.t_last;
    if (end == cache.services.end()) continue;
    kept_cache.cut.assign(end, cache.services.end());
    cache.services.erase(end, cache.services.end());
    cache.t_last = requests[cache.services.back()].start_time;
  }
  const auto opened =
      plan.residencies.begin() + static_cast<std::ptrdiff_t>(cut.kept_.size());
  assert(std::none_of(opened, plan.residencies.end(),
                      [&](const Residency& cache) {
                        return !cache.services.empty() &&
                               is_kept(cache.services.front());
                      }));
  cut.opened_.assign(std::make_move_iterator(opened),
                     std::make_move_iterator(plan.residencies.end()));
  plan.residencies.erase(opened, plan.residencies.end());
  return cut;
}

void PlanCut::Revert(FileSchedule& plan) && {
  plan.deliveries.erase(
      plan.deliveries.begin() + static_cast<std::ptrdiff_t>(kept_deliveries_),
      plan.deliveries.end());
  plan.deliveries.insert(plan.deliveries.end(),
                         std::make_move_iterator(deliveries_.begin()),
                         std::make_move_iterator(deliveries_.end()));
  plan.residencies.erase(
      plan.residencies.begin() + static_cast<std::ptrdiff_t>(kept_.size()),
      plan.residencies.end());
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    Residency& cache = plan.residencies[i];
    cache.services.erase(cache.services.begin() + static_cast<std::ptrdiff_t>(
                                                      kept_[i].services),
                         cache.services.end());
    cache.services.insert(cache.services.end(), kept_[i].cut.begin(),
                          kept_[i].cut.end());
    cache.t_last = kept_[i].t_last;
  }
  plan.residencies.insert(plan.residencies.end(),
                          std::make_move_iterator(opened_.begin()),
                          std::make_move_iterator(opened_.end()));
}

Schedule IvspSolve(const std::vector<workload::Request>& requests,
                   const CostModel& cost_model, const IvspOptions& options,
                   util::ThreadPool* pool, obs::MetricsRegistry* metrics) {
  const obs::ScopedSpan span(metrics, "ivsp");
  workload::VideoGroups groups = workload::GroupByVideo(requests);
  Schedule schedule;
  schedule.files.resize(groups.size());
  std::vector<FileWork> work(groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    schedule.files[i].video = groups[i].first;
    work[i] = FileWork{i, std::move(groups[i].second)};
  }
  PlaceFiles(work, requests, cost_model, options, schedule, pool, metrics);
  return schedule;
}

void PlaceFiles(const std::vector<FileWork>& work,
                const std::vector<workload::Request>& requests,
                const CostModel& cost_model, const IvspOptions& options,
                Schedule& schedule, util::ThreadPool* pool,
                obs::MetricsRegistry* metrics) {
  // Per-file tallies/timings land in entry-indexed vectors and are folded
  // into the registry serially below, so counter values are identical at
  // any thread count (only the wall-clock observations vary).
  std::vector<GreedyStats> file_stats(metrics != nullptr ? work.size() : 0);
  std::vector<double> file_seconds(file_stats.size(), 0.0);
  const auto place = [&](std::size_t w, const ConstraintSet* constraints) {
    const obs::Stopwatch watch;
    ExtendFileGreedy(schedule.files[work[w].file], requests, work[w].indices,
                     cost_model, options, constraints,
                     metrics != nullptr ? &file_stats[w] : nullptr);
    if (metrics != nullptr) file_seconds[w] = watch.Seconds();
  };
  if (storage::HasStreamCaps(cost_model.topology())) {
    // No title resumes here, so every slot placed is empty and the
    // schedule's streams are the carried plans': they load the topology
    // before any file is placed.
    storage::Load streams(schedule, cost_model, storage::Resources::kStreams);
    for (std::size_t w = 0; w < work.size(); ++w) {
      const std::size_t f = work[w].file;
      assert(schedule.files[f].deliveries.empty() &&
             schedule.files[f].residencies.empty());
      const storage::LoadView others = streams.Excluding(f);
      ConstraintSet constraints;
      constraints.load = &others;
      place(w, &constraints);
      streams.ApplyCommit(f, schedule.files[f]);
    }
  } else if (pool != nullptr && work.size() > 1) {
    // Shared-nothing fan-out: each task writes only its own slot, reads
    // only const state (CP.1/CP.9 compliant by construction).
    pool->ParallelFor(work.size(), [&](std::size_t w) { place(w, nullptr); });
  } else {
    for (std::size_t w = 0; w < work.size(); ++w) place(w, nullptr);
  }
  if (metrics != nullptr) {
    GreedyStats total;
    obs::Timer& greedy_timer = metrics->GetTimer("ivsp.file_greedy");
    for (std::size_t w = 0; w < work.size(); ++w) {
      total += file_stats[w];
      greedy_timer.Observe(file_seconds[w]);
    }
    obs::Add(metrics, "ivsp.files", work.size());
    obs::Add(metrics, "ivsp.requests", total.requests);
    obs::Add(metrics, "ivsp.decision.direct", total.direct);
    obs::Add(metrics, "ivsp.decision.extend", total.extend);
    obs::Add(metrics, "ivsp.decision.new_cache", total.new_cache);
    obs::Add(metrics, "ivsp.candidates_evaluated", total.candidates);
    obs::Add(metrics, "ivsp.forced_direct", total.forced_direct);
    obs::Add(metrics, "ivsp.reject.route", total.rejected_route);
  }
}

}  // namespace vor::core
