#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/cost_model.hpp"
#include "core/ivsp.hpp"
#include "core/rejective_greedy.hpp"
#include "media/catalog.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace vor::workload {
namespace {

net::Topology Topo(std::size_t storages) {
  net::Topology topo;
  const net::NodeId vw = topo.AddWarehouse("VW");
  net::NodeId prev = vw;
  for (std::size_t i = 0; i < storages; ++i) {
    const net::NodeId n = topo.AddStorage("IS" + std::to_string(i),
                                          util::GB(5), util::StorageRate{0});
    topo.AddLink(prev, n, util::NetworkRate{1e-9});
    prev = n;
  }
  return topo;
}

TEST(WorkloadTest, OneRequestPerUser) {
  const net::Topology topo = Topo(19);
  const media::Catalog catalog = media::MakeSyntheticCatalog({});
  WorkloadParams params;
  params.users_per_neighborhood = 10;
  const auto requests = GenerateRequests(topo, catalog, params);
  EXPECT_EQ(requests.size(), 190u);  // the paper's per-cycle request count
}

TEST(WorkloadTest, RequestsSortedAndInCycle) {
  const net::Topology topo = Topo(5);
  const media::Catalog catalog = media::MakeSyntheticCatalog({});
  WorkloadParams params;
  params.cycle_length = util::Hours(24);
  const auto requests = GenerateRequests(topo, catalog, params);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_GE(requests[i].start_time.value(), 0.0);
    EXPECT_LT(requests[i].start_time.value(), 24 * 3600.0);
    EXPECT_TRUE(topo.IsStorage(requests[i].neighborhood));
    EXPECT_LT(requests[i].video, catalog.size());
    if (i) {
      EXPECT_LE(requests[i - 1].start_time, requests[i].start_time);
    }
  }
}

TEST(WorkloadTest, UsersSpreadAcrossNeighborhoods) {
  const net::Topology topo = Topo(4);
  const media::Catalog catalog = media::MakeSyntheticCatalog({});
  WorkloadParams params;
  params.users_per_neighborhood = 7;
  const auto requests = GenerateRequests(topo, catalog, params);
  std::map<net::NodeId, int> counts;
  for (const Request& r : requests) ++counts[r.neighborhood];
  EXPECT_EQ(counts.size(), 4u);
  for (const auto& [node, count] : counts) EXPECT_EQ(count, 7);
}

TEST(WorkloadTest, SkewControlsConcentration) {
  const net::Topology topo = Topo(19);
  media::CatalogParams cp;
  cp.count = 500;
  const media::Catalog catalog = media::MakeSyntheticCatalog(cp);

  auto distinct_videos = [&](double alpha) {
    WorkloadParams params;
    params.users_per_neighborhood = 50;
    params.zipf_alpha = alpha;
    params.seed = 3;
    const auto requests = GenerateRequests(topo, catalog, params);
    std::map<media::VideoId, int> seen;
    for (const Request& r : requests) ++seen[r.video];
    return seen.size();
  };
  // More skew (smaller alpha) -> requests hit fewer distinct titles.
  EXPECT_LT(distinct_videos(0.1), distinct_videos(0.7));
}

TEST(WorkloadTest, EveningPeakShiftsMassLate) {
  const net::Topology topo = Topo(10);
  const media::Catalog catalog = media::MakeSyntheticCatalog({});
  WorkloadParams uniform;
  uniform.users_per_neighborhood = 200;
  uniform.profile = StartTimeProfile::kUniform;
  WorkloadParams evening = uniform;
  evening.profile = StartTimeProfile::kEveningPeak;

  auto mean_time = [&](const WorkloadParams& p) {
    double total = 0.0;
    const auto requests = GenerateRequests(topo, catalog, p);
    for (const Request& r : requests) total += r.start_time.value();
    return total / static_cast<double>(requests.size());
  };
  EXPECT_GT(mean_time(evening), mean_time(uniform) * 1.1);
}

TEST(WorkloadTest, DeterministicPerSeed) {
  const net::Topology topo = Topo(5);
  const media::Catalog catalog = media::MakeSyntheticCatalog({});
  WorkloadParams params;
  params.seed = 99;
  const auto a = GenerateRequests(topo, catalog, params);
  const auto b = GenerateRequests(topo, catalog, params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].video, b[i].video);
    EXPECT_EQ(a[i].start_time, b[i].start_time);
  }
}

TEST(GroupByVideoTest, GroupsAreChronologicalAndComplete) {
  const net::Topology topo = Topo(6);
  const media::Catalog catalog = media::MakeSyntheticCatalog({});
  WorkloadParams params;
  params.users_per_neighborhood = 20;
  const auto requests = GenerateRequests(topo, catalog, params);
  const auto groups = GroupByVideo(requests);

  std::size_t total = 0;
  media::VideoId prev_video = 0;
  bool first = true;
  for (const auto& [video, indices] : groups) {
    if (!first) {
      EXPECT_GT(video, prev_video);  // ordered by video id
    }
    prev_video = video;
    first = false;
    total += indices.size();
    for (std::size_t i = 0; i < indices.size(); ++i) {
      EXPECT_EQ(requests[indices[i]].video, video);
      if (i) {
        EXPECT_LE(requests[indices[i - 1]].start_time,
                  requests[indices[i]].start_time);
      }
    }
  }
  EXPECT_EQ(total, requests.size());
}

TEST(GroupByVideoTest, TiedStartsComeOutInIndexOrder) {
  // 40 requests per title on five start times, later indices starting
  // earlier: a sort by start time alone may permute each tie once a group
  // outgrows insertion sort.
  const net::Topology topo = Topo(4);
  const media::Catalog catalog = media::MakeSyntheticCatalog({});
  const std::vector<net::NodeId> storages = topo.StorageNodes();
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 120; ++i) {
    requests.push_back(
        Request{static_cast<UserId>(i), static_cast<media::VideoId>(i % 3),
                util::Hours(static_cast<double>(5 - i % 5)),
                storages[i % storages.size()]});
  }
  const VideoGroups groups = GroupByVideo(requests);
  ASSERT_EQ(groups.size(), 3u);
  for (const auto& [video, indices] : groups) {
    ASSERT_EQ(indices.size(), 40u);
    for (std::size_t i = 1; i < indices.size(); ++i) {
      const util::Seconds prev = requests[indices[i - 1]].start_time;
      const util::Seconds next = requests[indices[i]].start_time;
      EXPECT_TRUE(prev < next || (prev == next && indices[i - 1] < indices[i]))
          << "video " << video << " position " << i;
    }
  }

  // Phase 1 serves each title in its group's order, and a SORP victim
  // re-plan recovers that same order from the plan.
  const net::Router router(topo);
  const core::CostModel cm(topo, router, catalog);
  const core::Schedule plan =
      core::IvspSolve(requests, cm, core::IvspOptions{});
  ASSERT_EQ(plan.files.size(), groups.size());
  for (std::size_t f = 0; f < groups.size(); ++f) {
    const std::vector<std::size_t>& indices = groups[f].second;
    EXPECT_EQ(core::FileRequestIndices(plan.files[f].deliveries, requests),
              indices);
    ASSERT_EQ(plan.files[f].deliveries.size(), indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      EXPECT_EQ(plan.files[f].deliveries[i].request_index, indices[i]);
    }
  }
}

TEST(GroupByVideoTest, MatchesAMapGrouping) {
  // Random logs with few titles (every title repeats), few start times
  // (ties are common) and a grouped suffix starting past 0: the one-sort
  // grouping must equal a grouping through a map of per-title lists,
  // each sorted in ChronologicalOrder.
  const net::Topology topo = Topo(3);
  const std::vector<net::NodeId> storages = topo.StorageNodes();
  util::Rng rng(29);
  for (std::size_t trial = 0; trial < 50; ++trial) {
    std::vector<Request> requests(1 + rng.NextBounded(300));
    for (std::size_t i = 0; i < requests.size(); ++i) {
      requests[i] = Request{
          static_cast<UserId>(i),
          static_cast<media::VideoId>(rng.NextBounded(1 + trial % 12)),
          util::Hours(static_cast<double>(rng.NextBounded(6))),
          storages[rng.NextBounded(storages.size())]};
    }
    const std::size_t first = rng.NextBounded(requests.size() + 1);
    std::map<media::VideoId, std::vector<std::size_t>> by_map;
    for (std::size_t i = first; i < requests.size(); ++i) {
      by_map[requests[i].video].push_back(i);
    }
    VideoGroups expected;
    for (auto& [video, indices] : by_map) {
      std::sort(indices.begin(), indices.end(), ChronologicalOrder{&requests});
      expected.emplace_back(video, std::move(indices));
    }
    EXPECT_EQ(GroupByVideo(requests, first), expected)
        << "trial " << trial << ", first " << first;
  }
}

}  // namespace
}  // namespace vor::workload
