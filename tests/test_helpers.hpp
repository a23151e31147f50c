// Shared fixtures for the test suite: the paper's Fig. 2 worked example
// and small random environments.
#pragma once

#include <algorithm>
#include <vector>

#include "core/cost_model.hpp"
#include "media/catalog.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "workload/request.hpp"
#include "workload/scenario.hpp"

namespace vor::testing {

/// The Sec. 3.2 worked example environment:
///   VW --(0.2 c/Mbit ~ $16/GB)-- IS1 --(0.1 c/Mbit ~ $8/GB)-- IS2
/// one 2.5 GB / 90 min / 6 Mbps title; srate(IS) = $1/(GB*h);
/// U1 local to IS1 requests at 1:00 pm; U2, U3 local to IS2 request at
/// 2:30 pm and 4:00 pm.  The paper computes Psi(S1) = $259.20 and
/// Psi(S2) = $138.975 for this instance.
struct PaperExample {
  net::Topology topology;
  media::Catalog catalog;
  std::vector<workload::Request> requests;
  net::NodeId vw = 0;
  net::NodeId is1 = 0;
  net::NodeId is2 = 0;

  PaperExample() {
    vw = topology.AddWarehouse("VW");
    const util::StorageRate srate{1.0 / (1e9 * 3600.0)};  // $1/(GB*h)
    is1 = topology.AddStorage("IS1", util::GB(100.0), srate);
    is2 = topology.AddStorage("IS2", util::GB(100.0), srate);
    // $16/GB and $8/GB make a 90-min 6-Mbps stream (4.05e9 amortized
    // bytes) cost $64.80 and $32.40 per hop, matching the paper.
    topology.AddLink(vw, is1, util::NetworkRate{16.0 / 1e9});
    topology.AddLink(is1, is2, util::NetworkRate{8.0 / 1e9});

    media::Video v;
    v.title = "example";
    v.size = util::GB(2.5);
    v.playback = util::Minutes(90.0);
    v.bandwidth = util::Mbps(6.0);
    catalog.Add(v);

    // 1:00 pm = 13 h, 2:30 pm = 14.5 h, 4:00 pm = 16 h.
    requests = {
        workload::Request{0, 0, util::Hours(13.0), is1},
        workload::Request{1, 0, util::Hours(14.5), is2},
        workload::Request{2, 0, util::Hours(16.0), is2},
    };
  }
};

/// A small 1-warehouse / N-storage star+chain topology with uniform rates,
/// convenient for handcrafted scheduling tests.
inline net::Topology SmallTopology(std::size_t storages,
                                   double nrate_per_gb = 10.0,
                                   double srate_per_gb_hour = 1.0,
                                   double capacity_gb = 100.0) {
  net::Topology topo;
  const net::NodeId vw = topo.AddWarehouse("VW");
  const util::StorageRate srate{srate_per_gb_hour / (1e9 * 3600.0)};
  std::vector<net::NodeId> nodes;
  for (std::size_t i = 0; i < storages; ++i) {
    nodes.push_back(topo.AddStorage("IS" + std::to_string(i),
                                    util::GB(capacity_gb), srate));
  }
  // Chain VW - IS0 - IS1 - ... so multi-hop costs differ per neighborhood.
  const util::NetworkRate rate{nrate_per_gb / 1e9};
  net::NodeId prev = vw;
  for (const net::NodeId n : nodes) {
    topo.AddLink(prev, n, rate);
    prev = n;
  }
  return topo;
}

/// One-video catalog with round numbers (1 GB, 1 h playback).
inline media::Catalog OneVideoCatalog() {
  media::Catalog catalog;
  media::Video v;
  v.title = "unit";
  v.size = util::GB(1.0);
  v.playback = util::Hours(1.0);
  v.bandwidth = v.size / v.playback;
  catalog.Add(v);
  return catalog;
}

/// A multi-close horizon's scenario: 24 users per neighborhood over 60
/// titles, storage dear enough that caching competes with the network.
inline workload::ScenarioParams ReplayParams(double capacity_gb) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(capacity_gb);
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  params.users_per_neighborhood = 24;
  params.catalog_size = 60;
  return params;
}

/// `count` consecutive runs of the start-ordered requests: every batch
/// starts at or after the last one, so each touched title's split falls
/// at its plan's end.
inline std::vector<std::vector<workload::Request>> Chronological(
    const std::vector<workload::Request>& requests, std::size_t count) {
  std::vector<std::vector<workload::Request>> batches(count);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    batches[i * count / requests.size()].push_back(requests[i]);
  }
  return batches;
}

/// Request i goes to batch i % count: every batch spans the whole day,
/// so late requests start before committed ones and splits fall mid-plan.
inline std::vector<std::vector<workload::Request>> Interleaved(
    const std::vector<workload::Request>& requests, std::size_t count) {
  std::vector<std::vector<workload::Request>> batches(count);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    batches[i % count].push_back(requests[i]);
  }
  return batches;
}

/// Reverses the deliveries of the first title `batch` touches that has
/// two or more, as a restored plan may list them.  Returns 1 if a title
/// had, 0 if none did.
inline std::size_t ReverseOneTouchedPlan(
    core::Schedule& schedule, const std::vector<workload::Request>& batch) {
  for (core::FileSchedule& file : schedule.files) {
    if (file.deliveries.size() >= 2 &&
        std::any_of(batch.begin(), batch.end(),
                    [&](const workload::Request& r) {
                      return r.video == file.video;
                    })) {
      std::reverse(file.deliveries.begin(), file.deliveries.end());
      return 1;
    }
  }
  return 0;
}

}  // namespace vor::testing
