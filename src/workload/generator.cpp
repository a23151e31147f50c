#include "workload/generator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/zipf.hpp"

namespace vor::workload {

namespace {

double DrawStartTime(util::Rng& rng, const WorkloadParams& params) {
  const double cycle = params.cycle_length.value();
  switch (params.profile) {
    case StartTimeProfile::kUniform:
      return rng.Uniform(0.0, cycle);
    case StartTimeProfile::kEveningPeak: {
      // Triangular distribution on [0, cycle] with mode at 0.75 * cycle.
      const double mode = 0.75;
      const double u = rng.NextDouble();
      const double x = (u < mode) ? std::sqrt(u * mode)
                                  : 1.0 - std::sqrt((1.0 - u) * (1.0 - mode));
      return x * cycle;
    }
  }
  return 0.0;
}

}  // namespace

std::vector<Request> GenerateRequestsRanked(
    const net::Topology& topology, const media::Catalog& catalog,
    const WorkloadParams& params,
    const std::vector<media::VideoId>& rank_to_video) {
  assert(catalog.size() > 0);
  assert(rank_to_video.size() == catalog.size());
  util::Rng rng(params.seed);
  const util::ZipfDistribution zipf(catalog.size(), params.zipf_alpha);

  std::vector<Request> requests;
  UserId next_user = 0;
  for (const net::NodeId is : topology.StorageNodes()) {
    for (std::size_t u = 0; u < params.users_per_neighborhood; ++u) {
      Request r;
      r.user = next_user++;
      r.neighborhood = is;
      r.video = rank_to_video[zipf.Sample(rng)];
      r.start_time = util::Seconds{DrawStartTime(rng, params)};
      requests.push_back(r);
    }
  }
  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) {
              if (a.start_time != b.start_time) return a.start_time < b.start_time;
              return a.user < b.user;
            });
  return requests;
}

std::vector<Request> GenerateRequests(const net::Topology& topology,
                                      const media::Catalog& catalog,
                                      const WorkloadParams& params) {
  std::vector<media::VideoId> identity(catalog.size());
  for (std::size_t i = 0; i < identity.size(); ++i) {
    identity[i] = static_cast<media::VideoId>(i);
  }
  return GenerateRequestsRanked(topology, catalog, params, identity);
}

VideoGroups GroupByVideo(const std::vector<Request>& requests,
                         std::size_t first) {
  // One sort of (title, start, index) lays the groups out back to back,
  // each in ChronologicalOrder.
  struct Key {
    media::VideoId video;
    util::Seconds start;
    std::size_t index;
  };
  std::vector<Key> keys;
  keys.reserve(requests.size() - std::min(first, requests.size()));
  for (std::size_t i = first; i < requests.size(); ++i) {
    keys.push_back(Key{requests[i].video, requests[i].start_time, i});
  }
  std::ranges::sort(keys, [](const Key& a, const Key& b) {
    if (a.video != b.video) return a.video < b.video;
    if (a.start != b.start) return a.start < b.start;
    return a.index < b.index;
  });
  VideoGroups out;
  for (auto group = keys.begin(); group != keys.end();) {
    const auto end = std::find_if(group, keys.end(), [&](const Key& k) {
      return k.video != group->video;
    });
    std::vector<std::size_t>& indices =
        out.emplace_back(group->video, std::vector<std::size_t>{}).second;
    indices.reserve(static_cast<std::size_t>(end - group));
    for (auto k = group; k != end; ++k) indices.push_back(k->index);
    group = end;
  }
  return out;
}

}  // namespace vor::workload
