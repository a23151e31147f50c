#include "core/sorp.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <iterator>
#include <numeric>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "core/overflow.hpp"
#include "core/rejective_greedy.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "storage/load.hpp"

namespace vor::core {

namespace {

/// Result of one tentative rejective-greedy dry run.
struct Evaluation {
  double heat = -std::numeric_limits<double>::infinity();
  FileSchedule schedule;
  GreedyStats greedy;
  double seconds = 0.0;
};

/// Keeps `file`'s plan in `displaced` unless an earlier commit already
/// put one there, so each victim gives up its pre-SORP plan exactly once.
void Displace(Schedule& schedule, std::size_t file, DisplacedPlans* displaced) {
  if (displaced == nullptr ||
      std::any_of(displaced->begin(), displaced->end(),
                  [&](const auto& kept) { return kept.first == file; })) {
    return;
  }
  displaced->emplace_back(file, std::move(schedule.files[file]));
}

/// The paper's Table-3 resolution loop on `load`, whose current overflow
/// windows are `overflows` and whose excess is `excess`.  The load holds
/// the whole schedule or one region shard's files; in shard scope the
/// overflow detection and excess measure see only the shard's files,
/// which, because shards are route-closed (see FormShards), see exactly
/// the same per-node timelines the global loop would.  The caller
/// supplies the metrics sink (per-shard local registries during the
/// parallel phase) and the pool for the *inner* evaluation fan-out (null
/// inside parallel shards — the shard already owns a worker thread).
/// Round spans are suppressed in shard scope: ScopedSpan paths are
/// per-thread and would start fresh roots on pool workers.  Fills the
/// victim, evaluation and final-excess fields of the result; the
/// caller owns the initial-detection fields, the build count and the
/// costs.  On a topology with stream caps the load also holds the
/// streams; shards stay exact because every link a shard file's
/// candidates can cross has both ends in that shard (see FormShards).
SorpStats ResolveOverflows(storage::Load& load, Schedule& schedule,
                           std::vector<OverflowWindow> overflows,
                           double excess,
                           const std::vector<workload::Request>& requests,
                           const CostModel& cost_model,
                           const SorpOptions& options, util::ThreadPool* pool,
                           obs::MetricsRegistry* metrics, bool round_spans,
                           DisplacedPlans* displaced) {
  SorpStats stats;
  if (metrics != nullptr && !overflows.empty()) {
    obs::Append(metrics, "sorp.excess_trajectory", excess);
  }

  // One tentative rejective-greedy dry run; pure given a frozen schedule.
  // The per-evaluation tallies/timings ride back in the slot-indexed
  // Evaluation and are folded into the registry serially.
  const auto evaluate = [&](const SorpCandidate& c) -> Evaluation {
    const obs::Stopwatch watch;
    // The backdrop the victim must fit into: all other files' load, as a
    // view that overlays only the keys where the victim has pieces.  The
    // capacity-unaware ablation blanks its space keys, leaving the static
    // height check.
    const storage::LoadView others =
        load.Excluding(c.file_index, options.capacity_aware_reschedule);
    RescheduleResult attempt =
        RescheduleVictim(schedule, c.file_index, requests, cost_model,
                         options.ivsp, {{c.node, c.window}}, others);
    Evaluation out;
    out.heat =
        ComputeHeat(options.heat, c.chi, c.ds, attempt.Overhead().value());
    out.schedule = std::move(attempt.schedule);
    out.greedy = attempt.greedy;
    out.seconds = watch.Seconds();
    return out;
  };

  while (!overflows.empty() &&
         stats.victims_rescheduled < options.max_iterations) {
    const obs::ScopedSpan round_span(round_spans ? metrics : nullptr, "round");
    std::vector<SorpCandidate> candidates =
        CollectSorpCandidates(schedule, overflows, cost_model);
    if (candidates.empty()) break;  // nothing can improve any window

    // The ablation policy commits the first eligible pairing outright —
    // no shootout, so only one dry run is needed.
    if (options.victim_policy == VictimPolicy::kFirstContributor) {
      candidates.resize(1);
    }

    std::vector<Evaluation> evals(candidates.size());
    const bool parallel = pool != nullptr && candidates.size() > 1 &&
                          !pool->InWorkerThread();
    if (parallel) {
      // Fan the dry runs out; each slot reads the frozen schedule and
      // writes only its own entry.  The reduction below is order-based,
      // so thread scheduling cannot change the chosen victim.
      pool->ParallelFor(candidates.size(), [&](std::size_t i) {
        evals[i] = evaluate(candidates[i]);
      });
    } else {
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        evals[i] = evaluate(candidates[i]);
      }
    }

    stats.evaluations += candidates.size();
    if (metrics != nullptr) {
      obs::Add(metrics, "sorp.rounds");
      obs::Add(metrics, "sorp.candidates_evaluated", candidates.size());
      GreedyStats round_greedy;
      obs::Timer& eval_timer = metrics->GetTimer("sorp.evaluation");
      for (const Evaluation& e : evals) {
        round_greedy += e.greedy;
        eval_timer.Observe(e.seconds);
      }
      obs::Add(metrics, "sorp.reschedule.candidates_priced",
               round_greedy.candidates);
      obs::Add(metrics, "sorp.reject.forbidden_window",
               round_greedy.rejected_forbidden);
      obs::Add(metrics, "sorp.reject.capacity", round_greedy.rejected_capacity);
      obs::Add(metrics, "sorp.reject.route", round_greedy.rejected_route);
      obs::Add(metrics, "sorp.reschedule.forced_direct",
               round_greedy.forced_direct);
    }

    // Serial, deterministic reduction: max heat, ties to the smallest
    // file index, then to discovery order.  Independent of thread count.
    std::size_t best = 0;
    for (std::size_t i = 1; i < evals.size(); ++i) {
      if (evals[i].heat > evals[best].heat ||
          (evals[i].heat == evals[best].heat &&
           candidates[i].file_index < candidates[best].file_index)) {
        best = i;
      }
    }

    // Commit step — always serial, per the paper's Table-3 loop.  In shard
    // scope the victim is a shard-owned file, so concurrent shards write
    // disjoint schedule slots.
    const std::size_t victim = candidates[best].file_index;
    Displace(schedule, victim, displaced);
    schedule.files[victim] = std::move(evals[best].schedule);
    ++stats.victims_rescheduled;
    stats.victim_files.push_back(victim);

    // O(victim pieces) diff: swap the victim's old pieces for its new ones.
    load.ApplyCommit(victim, schedule.files[victim]);
    overflows = DetectOverflowsIn(load);
    const double new_excess = TotalExcess(load);
    obs::Append(metrics, "sorp.excess_trajectory", new_excess);
    const bool progress = new_excess < excess;
    excess = new_excess;
    if (!progress) break;  // defensive: no progress
  }

  stats.final_excess = excess;
  return stats;
}

// ---- region sharding ------------------------------------------------------

/// Union-find over dense region ids; deterministic (the smaller root
/// always wins), path-halving finds.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Returns true when the two sets were distinct (a real merge).
  bool Unite(std::size_t a, std::size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    if (b < a) std::swap(a, b);
    parent_[b] = a;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

struct ShardPlan {
  /// Per shard, the global file indices it owns, ascending; shards ordered
  /// by their merged group's smallest base-region id (canonical).
  std::vector<std::vector<std::size_t>> shard_files;
  /// Natural/coalesced regions before closure merging.
  std::size_t base_regions = 0;
  /// Files whose footprint touched >= 2 base regions (the merge pressure).
  std::size_t cross_files = 0;
};

/// Partitions the schedule's files into independently resolvable shards.
///
/// Starting from the topology's base regions (net::MakeRegions), two merge
/// passes run to a joint fixpoint:
///   1. file spans — a file's requesting neighborhoods, current residency
///      locations, and delivery-route nodes must share one shard (the
///      file is one indivisible victim);
///   2. route closure — every cheapest path among {VW} ∪ group members
///      with both endpoints in the group is folded into the group.
/// The closure makes each shard's greedy self-contained: RescheduleVictim
/// only ever consults nodes on cheapest paths from {VW, existing caches}
/// to the file's requesting neighborhoods, and all of those are group
/// members after closure.  Hence (a) a shard's commits only touch its own
/// nodes, (b) no node hosts residencies of two shards, (c) every link a
/// shard file's stream can cross has both ends in that shard (or one end
/// at the VW), and so does every io-capped origin, so a shard's stream
/// load holds every stream its files compete with, and (d) each shard's
/// victim sequence equals the monolithic loop's subsequence of commits to
/// that shard's files — the byte-identity argument of DESIGN.md
/// "Region-sharded SORP".
///
/// Files with no footprint at all (no requests, residencies, deliveries)
/// belong to no shard; neither engine can ever pick them as victims.
ShardPlan FormShards(const Schedule& schedule,
                     const std::vector<workload::Request>& requests,
                     const CostModel& cost_model, std::size_t target_regions) {
  ShardPlan plan;
  const net::Topology& topology = cost_model.topology();
  const net::RegionMap rmap = net::MakeRegions(topology, target_regions);
  plan.base_regions = rmap.count;
  if (rmap.count == 0) return plan;

  std::unordered_map<media::VideoId, std::size_t> file_of_video;
  file_of_video.reserve(schedule.files.size());
  for (std::size_t f = 0; f < schedule.files.size(); ++f) {
    file_of_video.emplace(schedule.files[f].video, f);
  }

  // Base regions touched by each file's current footprint.
  std::vector<std::vector<std::uint32_t>> file_regions(schedule.files.size());
  const auto add_region = [&](std::size_t f, net::NodeId node) {
    const std::uint32_t r = rmap.RegionOf(node);
    if (r != net::kInvalidRegion) file_regions[f].push_back(r);
  };
  for (const workload::Request& req : requests) {
    const auto it = file_of_video.find(req.video);
    if (it != file_of_video.end()) add_region(it->second, req.neighborhood);
  }
  for (std::size_t f = 0; f < schedule.files.size(); ++f) {
    const FileSchedule& file = schedule.files[f];
    for (const Residency& c : file.residencies) add_region(f, c.location);
    for (const Delivery& d : file.deliveries) {
      for (const net::NodeId node : d.route) add_region(f, node);
    }
    auto& regions = file_regions[f];
    std::sort(regions.begin(), regions.end());
    regions.erase(std::unique(regions.begin(), regions.end()), regions.end());
    if (regions.size() >= 2) ++plan.cross_files;
  }

  UnionFind uf(rmap.count);
  for (const auto& regions : file_regions) {
    for (std::size_t i = 1; i < regions.size(); ++i) {
      uf.Unite(regions[0], regions[i]);
    }
  }

  // Route closure to fixpoint.  Merging two groups can expose new member
  // pairs whose cheapest paths cross yet more regions, so iterate until no
  // union fires.  Group count only ever shrinks, so this terminates in at
  // most base_regions rounds.
  const net::Router& router = cost_model.router();
  const net::NodeId vw = topology.warehouse();
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<std::vector<net::NodeId>> members_of(rmap.count);
    for (net::NodeId id = 0; id < rmap.region_of.size(); ++id) {
      const std::uint32_t r = rmap.region_of[id];
      if (r == net::kInvalidRegion) continue;
      members_of[uf.Find(r)].push_back(id);
    }
    for (std::size_t g = 0; g < members_of.size(); ++g) {
      const std::vector<net::NodeId>& members = members_of[g];
      if (members.empty()) continue;
      const auto close_path = [&](net::NodeId from, net::NodeId to) {
        for (const net::NodeId node : router.CheapestPath(from, to).nodes) {
          const std::uint32_t r = rmap.RegionOf(node);
          if (r != net::kInvalidRegion && uf.Unite(g, r)) changed = true;
        }
      };
      for (const net::NodeId dst : members) {
        close_path(vw, dst);
        // Both directions: the router's tie-breaks need not be symmetric.
        for (const net::NodeId src : members) {
          if (src != dst) close_path(src, dst);
        }
      }
    }
  }

  // Canonical shard order: ascending merged-group root (roots are base
  // region ids, themselves numbered by smallest member node); files within
  // a shard ascending.
  std::map<std::size_t, std::vector<std::size_t>> by_root;
  for (std::size_t f = 0; f < schedule.files.size(); ++f) {
    if (file_regions[f].empty()) continue;
    by_root[uf.Find(file_regions[f][0])].push_back(f);
  }
  plan.shard_files.reserve(by_root.size());
  for (auto& [root, files] : by_root) {
    plan.shard_files.push_back(std::move(files));
  }
  return plan;
}

/// Region-sharded engine on `load`, the whole schedule's aggregate, which
/// overflows: resolve each shard concurrently on its own load (phase A),
/// fold per-shard stats/metrics serially in canonical order, then run a
/// global residual pass (phase B) on `load` — brought up to date by one
/// ApplyCommit per victim file, which answers every query as a fresh
/// build would — to mop up anything a shard left behind (per-shard
/// iteration budgets or progress-guard stalls).  Phase B finds nothing
/// when the shards fully resolved, the common case.  Costs and the
/// initial-detection fields are left to SorpSolve.
SorpStats RegionShardedSolve(storage::Load& load, Schedule& schedule,
                             const std::vector<workload::Request>& requests,
                             const CostModel& cost_model,
                             const SorpOptions& options,
                             DisplacedPlans* displaced) {
  obs::MetricsRegistry* metrics = options.metrics;
  util::ThreadPool* pool = options.pool;
  SorpStats stats;

  const ShardPlan plan =
      FormShards(schedule, requests, cost_model, options.regions);
  const std::size_t shards = plan.shard_files.size();
  stats.region_shards = shards;
  obs::Add(metrics, "sorp.regions.base", plan.base_regions);
  obs::Add(metrics, "sorp.regions.shards", shards);
  obs::Add(metrics, "sorp.regions.cross_files", plan.cross_files);

  // Phase A: per-shard resolution.  Each shard owns its load, overlay
  // caches, displaced plans and (when observability is on) a private
  // metrics registry, so the workers share nothing but read-only inputs
  // and their disjoint schedule slots.
  std::vector<SorpStats> shard_stats(shards);
  std::vector<DisplacedPlans> shard_displaced(displaced != nullptr ? shards
                                                                   : 0);
  std::vector<std::unique_ptr<obs::MetricsRegistry>> shard_metrics;
  shard_metrics.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shard_metrics.push_back(metrics != nullptr
                                ? std::make_unique<obs::MetricsRegistry>()
                                : nullptr);
  }
  const bool shards_parallel =
      pool != nullptr && shards > 1 && !pool->InWorkerThread();
  const auto run_shard = [&](std::size_t s, util::ThreadPool* inner_pool) {
    const obs::Stopwatch watch;
    storage::Load shard_load(schedule, cost_model, plan.shard_files[s]);
    std::vector<OverflowWindow> overflows = DetectOverflowsIn(shard_load);
    const double excess = TotalExcess(shard_load);
    shard_stats[s] = ResolveOverflows(
        shard_load, schedule, std::move(overflows), excess, requests,
        cost_model, options, inner_pool, shard_metrics[s].get(),
        /*round_spans=*/false,
        displaced != nullptr ? &shard_displaced[s] : nullptr);
    // Per-shard wall time; the serial fold merges these into one timer
    // whose count/min/max expose shard imbalance.
    obs::Observe(shard_metrics[s].get(), "sorp.shard.seconds", watch.Seconds());
  };
  {
    const obs::ScopedSpan regions_span(metrics, "regions");
    if (shards_parallel) {
      // Inner evaluation fan-out stays off inside parallel shards: each
      // shard already occupies one worker, and nested ParallelFor would
      // only run inline anyway.
      pool->ParallelFor(shards, [&](std::size_t s) { run_shard(s, nullptr); });
    } else {
      // Serial shard walk (single thread, or one shard): let each shard's
      // evaluation fan-out use the pool.
      for (std::size_t s = 0; s < shards; ++s) run_shard(s, pool);
    }
  }

  // Serial fold in canonical (ascending shard) order: stats sum, displaced
  // plans concatenate, metrics absorb.
  stats.usage_rebuilds = shards;
  for (std::size_t s = 0; s < shards; ++s) {
    const SorpStats& shard = shard_stats[s];
    stats.victims_rescheduled += shard.victims_rescheduled;
    stats.victim_files.insert(stats.victim_files.end(),
                              shard.victim_files.begin(),
                              shard.victim_files.end());
    stats.evaluations += shard.evaluations;
    if (displaced != nullptr) {
      std::move(shard_displaced[s].begin(), shard_displaced[s].end(),
                std::back_inserter(*displaced));
    }
  }
  if (metrics != nullptr) {
    for (const auto& shard_registry : shard_metrics) {
      metrics->Absorb(*shard_registry);
    }
  }

  // Phase B: global residual pass over the reconciled schedule, on the
  // opening load.  A file the shards committed more than once needs one
  // ApplyCommit, with its final plan.
  {
    const obs::ScopedSpan residual_span(metrics, "residual");
    std::vector<std::size_t> victims = stats.victim_files;
    std::sort(victims.begin(), victims.end());
    victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
    for (const std::size_t victim : victims) {
      load.ApplyCommit(victim, schedule.files[victim]);
    }
    std::vector<OverflowWindow> overflows = DetectOverflowsIn(load);
    const double excess = TotalExcess(load);
    const SorpStats residual = ResolveOverflows(
        load, schedule, std::move(overflows), excess, requests, cost_model,
        options, pool, metrics, /*round_spans=*/true, displaced);
    stats.victims_rescheduled += residual.victims_rescheduled;
    stats.victim_files.insert(stats.victim_files.end(),
                              residual.victim_files.begin(),
                              residual.victim_files.end());
    stats.evaluations += residual.evaluations;
    stats.final_excess = residual.final_excess;
    if (residual.victims_rescheduled > 0) {
      obs::Add(metrics, "sorp.regions.residual_victims",
               residual.victims_rescheduled);
    }
  }
  return stats;
}

}  // namespace

std::vector<SorpCandidate> CollectSorpCandidates(
    const Schedule& schedule, const std::vector<OverflowWindow>& overflows,
    const CostModel& cost_model) {
  std::vector<SorpCandidate> candidates;
  // Dedupe on the full (file, node, window.start, window.end) tuple.  The
  // previous packed key `(node << 32) ^ window.start` dropped the window
  // end entirely and aliased node bits once a start time exceeded 2^32
  // seconds, silently skipping distinct (file, window) pairings.
  std::set<std::tuple<std::size_t, net::NodeId, double, double>> evaluated;
  for (const OverflowWindow& of : overflows) {
    for (const ResidencyRef& ref : of.contributors) {
      const FileSchedule& file = schedule.files[ref.file_index];
      const Residency& c = file.residencies[ref.residency_index];

      const double ds = TimeSpaceImprovement(c, of, cost_model);
      if (ds <= 0.0) continue;
      const double chi = ImprovedLength(c, of, cost_model);

      if (!evaluated
               .emplace(ref.file_index, of.node, of.window.start.value(),
                        of.window.end.value())
               .second) {
        continue;
      }
      candidates.push_back(
          SorpCandidate{ref.file_index, of.node, of.window, chi, ds});
    }
  }
  return candidates;
}

SorpStats SorpSolve(Schedule& schedule,
                    const std::vector<workload::Request>& requests,
                    const CostModel& cost_model, const SorpOptions& options,
                    DisplacedPlans* displaced) {
  obs::MetricsRegistry* metrics = options.metrics;
  const obs::ScopedSpan span(metrics, "sorp");
  SorpStats stats;
  stats.cost_before = cost_model.TotalCost(schedule);

  // The opening aggregate (space, plus streams on a capped topology),
  // built once: detection reads it, and every resolution path commits to
  // it.  Shards partition the residency-hosting nodes and keep each
  // node's pieces in order, so no shard overflows where it does not.
  storage::Load load(schedule, cost_model);
  stats.usage_rebuilds = 1;
  std::vector<OverflowWindow> overflows = DetectOverflowsIn(load);
  stats.initial_overflow_windows = overflows.size();
  stats.initial_excess = TotalExcess(load);
  stats.final_excess = stats.initial_excess;
  if (!overflows.empty()) {
    // The region engine requires commit commutativity (kMaxHeat's
    // reduction is per-shard deterministic); otherwise the global loop
    // runs, which handles every configuration.
    const SorpStats resolved =
        options.regions != 1 && options.victim_policy == VictimPolicy::kMaxHeat
            ? RegionShardedSolve(load, schedule, requests, cost_model, options,
                                 displaced)
            : ResolveOverflows(load, schedule, std::move(overflows),
                               stats.initial_excess, requests, cost_model,
                               options, options.pool, metrics,
                               /*round_spans=*/true, displaced);
    stats.victims_rescheduled = resolved.victims_rescheduled;
    stats.victim_files = resolved.victim_files;
    stats.evaluations = resolved.evaluations;
    stats.usage_rebuilds += resolved.usage_rebuilds;
    stats.region_shards = resolved.region_shards;
    stats.final_excess = resolved.final_excess;
  }
  std::sort(stats.victim_files.begin(), stats.victim_files.end());
  stats.victim_files.erase(
      std::unique(stats.victim_files.begin(), stats.victim_files.end()),
      stats.victim_files.end());
  // No commit, no change: the schedule still costs what it did.
  stats.cost_after = stats.victims_rescheduled > 0
                         ? cost_model.TotalCost(schedule)
                         : stats.cost_before;
  obs::Add(metrics, "sorp.initial_overflow_windows",
           stats.initial_overflow_windows);
  obs::Add(metrics, "sorp.victims_rescheduled", stats.victims_rescheduled);
  obs::Add(metrics, "sorp.usage_rebuilds", stats.usage_rebuilds);
  if (metrics != nullptr && !stats.Resolved()) {
    obs::Add(metrics, "sorp.unresolved_runs");
  }
  return stats;
}

}  // namespace vor::core
