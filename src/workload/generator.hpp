// Synthetic VOR request workload (Sec. 5.1).
//
// Each neighborhood hosts a fixed number of users; every user places one
// reservation per cycle.  Titles are drawn from a Zipf-like popularity
// (Dan & Sitaram parameterisation, see util/zipf.hpp); start times are
// drawn from either a uniform or an evening-peaked profile over the cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "media/catalog.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "workload/request.hpp"

namespace vor::workload {

enum class StartTimeProfile : std::uint8_t {
  kUniform,
  /// Triangular peak at 75% of the cycle (prime-time evening viewing).
  kEveningPeak,
};

struct WorkloadParams {
  std::size_t users_per_neighborhood = 10;
  /// Zipf skew (paper: alpha in {0.1, 0.271, 0.5, 0.7}; larger = less biased).
  double zipf_alpha = 0.271;
  util::Seconds cycle_length = util::Hours(24.0);
  StartTimeProfile profile = StartTimeProfile::kUniform;
  std::uint64_t seed = 7;
};

/// Generates one reservation per user per neighborhood, sorted by
/// start time.  Neighborhoods are the storage nodes of `topology`.
[[nodiscard]] std::vector<Request> GenerateRequests(
    const net::Topology& topology, const media::Catalog& catalog,
    const WorkloadParams& params);

/// Same, with an explicit popularity ranking: the Zipf draw selects a
/// RANK and `rank_to_video[rank]` the title.  Lets a multi-day replay
/// (examples/week_of_service) drift which titles are hot without
/// touching the catalog.  Must be a permutation of the catalog's ids.
[[nodiscard]] std::vector<Request> GenerateRequestsRanked(
    const net::Topology& topology, const media::Catalog& catalog,
    const WorkloadParams& params,
    const std::vector<media::VideoId>& rank_to_video);

/// The one chronological order of a title's requests: start time, then
/// request index.  Phase 1 serves a title's requests in this order and a
/// SORP victim re-plan replays them in it; it is total on distinct
/// indices, so every grouping of the same requests agrees.
struct ChronologicalOrder {
  const std::vector<Request>* requests;

  [[nodiscard]] bool operator()(std::size_t a, std::size_t b) const {
    const util::Seconds ta = (*requests)[a].start_time;
    const util::Seconds tb = (*requests)[b].start_time;
    if (ta != tb) return ta < tb;
    return a < b;
  }
};

/// Request indices grouped by requested video (the scheduler's R_i sets):
/// one entry per requested title, ordered by video id, each group in
/// ChronologicalOrder.
using VideoGroups =
    std::vector<std::pair<media::VideoId, std::vector<std::size_t>>>;

/// Groups `requests[first..]` by video; indices refer to `requests`.
/// Videos with no request there get no entry.
[[nodiscard]] VideoGroups GroupByVideo(const std::vector<Request>& requests,
                                       std::size_t first = 0);

}  // namespace vor::workload
