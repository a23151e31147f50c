#include "baseline/online_lru.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "util/piecewise.hpp"
#include "workload/generator.hpp"

namespace vor::baseline {

namespace {

/// One resident copy at a storage node.
struct Copy {
  std::size_t file_index = 0;
  std::size_t residency_index = 0;
  /// Unique tag for the copy's reservation piece in the usage timeline.
  std::uint64_t tag = 0;
  util::Seconds last_use{0.0};
};

}  // namespace

OnlineLruResult OnlineLruSchedule(
    const std::vector<workload::Request>& requests,
    const core::CostModel& cost_model, const OnlineLruOptions& options) {
  const net::NodeId vw = cost_model.topology().warehouse();
  OnlineLruResult result;

  // One FileSchedule per distinct video, in GroupByVideo (video id) order.
  std::unordered_map<media::VideoId, std::size_t> file_of_video;
  for (const auto& [video, indices] : workload::GroupByVideo(requests)) {
    (void)indices;
    file_of_video.emplace(video, result.schedule.files.size());
    core::FileSchedule f;
    f.video = video;
    result.schedule.files.push_back(std::move(f));
  }

  std::unordered_map<net::NodeId, std::vector<Copy>> resident;
  std::unordered_map<net::NodeId, util::PiecewiseLinear> usage;
  std::uint64_t next_tag = 1;

  auto residency_of = [&](const Copy& copy) -> core::Residency& {
    return result.schedule.files[copy.file_index]
        .residencies[copy.residency_index];
  };
  auto logical_bytes = [&](net::NodeId node) {
    double total = 0.0;
    for (const Copy& copy : resident[node]) {
      const media::VideoId video = result.schedule.files[copy.file_index].video;
      total += cost_model.catalog().video(video).size.value();
    }
    return total;
  };

  // Requests must arrive in time order — this policy has no foresight.
  for (std::size_t i = 0; i + 1 < requests.size(); ++i) {
    assert(requests[i].start_time <= requests[i + 1].start_time);
  }

  for (std::size_t idx = 0; idx < requests.size(); ++idx) {
    const workload::Request& req = requests[idx];
    const net::NodeId home = req.neighborhood;
    const double capacity = cost_model.topology().node(home).capacity.value();
    std::vector<Copy>& copies = resident[home];
    util::PiecewiseLinear& node_usage = usage[home];

    // Idle-TTL sweep: quietly forget stale copies (their reservation
    // pieces already reflect their final [fill, last-use] shape).
    if (options.idle_ttl.value() > 0.0) {
      std::erase_if(copies, [&](const Copy& copy) {
        return copy.last_use + options.idle_ttl < req.start_time;
      });
    }

    // Local hit?
    const std::size_t file_index = file_of_video.at(req.video);
    const auto hit = std::find_if(copies.begin(), copies.end(),
                                  [&](const Copy& c) {
                                    return c.file_index == file_index;
                                  });
    const bool had_copy = hit != copies.end();
    if (hit != copies.end()) {
      core::Residency& res = residency_of(*hit);
      core::Residency extended = res;
      extended.t_last = req.start_time;
      util::LinearPiece piece =
          cost_model.OccupancyPiece(extended, req.video, hit->tag);
      const util::LinearPiece old_piece =
          cost_model.OccupancyPiece(res, req.video, hit->tag);
      node_usage.RemoveByTag(hit->tag);
      if (node_usage.FitsUnder(piece, capacity)) {
        node_usage.Add(piece);
        res.t_last = req.start_time;
        res.services.push_back(idx);
        hit->last_use = req.start_time;
        core::Delivery d;
        d.route = {home};
        d.start = req.start_time;
        d.request_index = idx;
        result.schedule.files[hit->file_index].deliveries.push_back(
            std::move(d));
        ++result.cache_hits;
        continue;
      }
      // Extension would not fit (another copy's drain overlaps): restore
      // and fall through to a direct delivery.
      if (old_piece.height > 0.0) node_usage.Add(old_piece);
    }

    // Miss: fetch from the warehouse.
    core::Delivery d;
    d.route = cost_model.router().CheapestPath(vw, home).nodes;
    d.start = req.start_time;
    d.request_index = idx;
    result.schedule.files[file_index].deliveries.push_back(std::move(d));

    // Try to keep a copy (LRU-evict logically until it fits).  When a
    // copy already exists (its extension just failed to fit), keep the
    // old one rather than admitting a duplicate.
    if (had_copy) continue;
    const double size = cost_model.catalog().video(req.video).size.value();
    if (size > capacity) continue;  // can never fit
    while (logical_bytes(home) + size > capacity && !copies.empty()) {
      const auto lru = std::min_element(
          copies.begin(), copies.end(), [](const Copy& a, const Copy& b) {
            return a.last_use < b.last_use;
          });
      copies.erase(lru);
      ++result.evictions;
    }
    if (logical_bytes(home) + size > capacity) continue;

    core::Residency cache;
    cache.location = home;
    cache.source = vw;
    cache.t_start = req.start_time;
    cache.t_last = req.start_time;
    Copy copy;
    copy.file_index = file_index;
    copy.residency_index =
        result.schedule.files[file_index].residencies.size();
    copy.tag = next_tag++;
    copy.last_use = req.start_time;
    result.schedule.files[file_index].residencies.push_back(std::move(cache));
    copies.push_back(copy);
    // Zero-duration residencies reserve nothing yet; their piece is added
    // on first extension.
  }

  // Drop copies nobody replayed (gamma = 0, no cost, no reservation).
  for (core::FileSchedule& file : result.schedule.files) {
    std::vector<core::Residency> kept;
    for (core::Residency& c : file.residencies) {
      if (!c.services.empty()) kept.push_back(std::move(c));
    }
    file.residencies = std::move(kept);
  }
  return result;
}

}  // namespace vor::baseline
