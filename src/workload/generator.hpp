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

/// Groups request indices by requested video (the scheduler's R_i sets),
/// each group sorted chronologically.  Result maps video id -> indices
/// into `requests`; videos with no request get no entry.
[[nodiscard]] std::vector<std::pair<media::VideoId, std::vector<std::size_t>>>
GroupByVideo(const std::vector<Request>& requests);

}  // namespace vor::workload
