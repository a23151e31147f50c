#include "net/topology.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

#include "util/rng.hpp"

namespace vor::net {

NodeId Topology::AddNode(NodeInfo info) {
  const auto id = static_cast<NodeId>(nodes_.size());
  info.id = id;
  nodes_.push_back(std::move(info));
  adjacency_.emplace_back();
  return id;
}

NodeId Topology::AddWarehouse(std::string name) {
  assert(warehouse_ == kInvalidNode && "topology already has a warehouse");
  NodeInfo info;
  info.kind = NodeKind::kWarehouse;
  info.name = std::move(name);
  info.capacity = util::Bytes{std::numeric_limits<double>::infinity()};
  info.srate = util::StorageRate{0.0};
  warehouse_ = AddNode(std::move(info));
  return warehouse_;
}

NodeId Topology::AddStorage(std::string name, util::Bytes capacity,
                            util::StorageRate srate) {
  NodeInfo info;
  info.kind = NodeKind::kStorage;
  info.name = std::move(name);
  info.capacity = capacity;
  info.srate = srate;
  return AddNode(std::move(info));
}

void Topology::AddLink(NodeId a, NodeId b, util::NetworkRate nrate,
                       util::BytesPerSecond bandwidth_cap) {
  assert(a < nodes_.size() && b < nodes_.size() && a != b);
  const std::size_t index = links_.size();
  links_.push_back(Link{a, b, nrate, bandwidth_cap});
  adjacency_[a].emplace_back(b, index);
  adjacency_[b].emplace_back(a, index);
}

std::vector<NodeId> Topology::StorageNodes() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const NodeInfo& n : nodes_) {
    if (n.kind == NodeKind::kStorage) out.push_back(n.id);
  }
  return out;
}

void Topology::SetUniformStorageCapacity(util::Bytes capacity) {
  for (NodeInfo& n : nodes_) {
    if (n.kind == NodeKind::kStorage) n.capacity = capacity;
  }
}

void Topology::SetUniformStorageRate(util::StorageRate srate) {
  for (NodeInfo& n : nodes_) {
    if (n.kind == NodeKind::kStorage) n.srate = srate;
  }
}

void Topology::SetUniformBandwidthCap(util::BytesPerSecond cap) {
  for (Link& l : links_) l.bandwidth_cap = cap;
}

void Topology::SetUniformStorageIoCap(util::BytesPerSecond cap) {
  for (NodeInfo& n : nodes_) {
    if (n.kind == NodeKind::kStorage) n.io_cap = cap;
  }
}

void Topology::SetNodeIoCap(NodeId id, util::BytesPerSecond cap) {
  assert(id < nodes_.size() && nodes_[id].kind == NodeKind::kStorage);
  nodes_[id].io_cap = cap;
}

Topology Topology::WithoutLink(std::size_t index) const {
  assert(index < links_.size());
  Topology copy;
  for (const NodeInfo& n : nodes_) {
    if (n.kind == NodeKind::kWarehouse) {
      copy.AddWarehouse(n.name);
    } else {
      const NodeId id = copy.AddStorage(n.name, n.capacity, n.srate);
      if (n.io_cap.value() > 0.0) copy.SetNodeIoCap(id, n.io_cap);
    }
  }
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (i == index) continue;
    copy.AddLink(links_[i].a, links_[i].b, links_[i].nrate,
                 links_[i].bandwidth_cap);
  }
  return copy;
}

util::Status Topology::Validate() const {
  if (warehouse_ == kInvalidNode) {
    return util::InvalidArgument("topology has no video warehouse");
  }
  if (StorageNodes().empty()) {
    return util::InvalidArgument("topology has no intermediate storage");
  }
  for (const NodeInfo& n : nodes_) {
    if (n.kind == NodeKind::kStorage) {
      if (n.capacity.value() < 0.0) {
        return util::InvalidArgument("negative capacity at node " + n.name);
      }
      if (n.srate.value() < 0.0) {
        return util::InvalidArgument("negative srate at node " + n.name);
      }
    }
  }
  for (const Link& l : links_) {
    if (l.nrate.value() < 0.0) {
      return util::InvalidArgument("negative nrate on a link");
    }
  }
  // Connectivity by BFS from the warehouse.
  std::vector<char> seen(nodes_.size(), 0);
  std::queue<NodeId> frontier;
  frontier.push(warehouse_);
  seen[warehouse_] = 1;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const auto& [v, link_index] : adjacency_[u]) {
      (void)link_index;
      if (!seen[v]) {
        seen[v] = 1;
        ++reached;
        frontier.push(v);
      }
    }
  }
  if (reached != nodes_.size()) {
    return util::InvalidArgument("topology is not connected");
  }
  return util::Status::Ok();
}

std::vector<std::vector<NodeId>> RegionMap::Members() const {
  std::vector<std::vector<NodeId>> members(count);
  for (NodeId id = 0; id < region_of.size(); ++id) {
    if (region_of[id] != kInvalidRegion) members[region_of[id]].push_back(id);
  }
  return members;
}

RegionMap MakeRegions(const Topology& topology, std::size_t target_regions) {
  assert(topology.has_warehouse());
  const NodeId vw = topology.warehouse();
  RegionMap map;
  map.region_of.assign(topology.node_count(), kInvalidRegion);

  // Seeds: the warehouse's direct storage neighbors, ascending and deduped
  // (parallel links would list a neighbor twice).
  std::vector<NodeId> seeds;
  for (const auto& [neighbor, link_index] : topology.Adjacency(vw)) {
    (void)link_index;
    if (topology.IsStorage(neighbor)) seeds.push_back(neighbor);
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

  // Multi-source BFS over the storage subgraph.  The frontier is seeded in
  // ascending seed order and neighbors are visited in adjacency order, so
  // first-reached assignment (hop ties to the earlier-queued, i.e.
  // smaller-id, seed) is deterministic.
  std::vector<std::uint32_t> cluster_of(topology.node_count(), kInvalidRegion);
  std::queue<NodeId> frontier;
  for (std::uint32_t c = 0; c < seeds.size(); ++c) {
    cluster_of[seeds[c]] = c;
    frontier.push(seeds[c]);
  }
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const auto& [v, link_index] : topology.Adjacency(u)) {
      (void)link_index;
      if (!topology.IsStorage(v) || cluster_of[v] != kInvalidRegion) continue;
      cluster_of[v] = cluster_of[u];
      frontier.push(v);
    }
  }
  const std::size_t clusters = seeds.size();

  // Coalesce round-robin (in seed order) when more clusters exist than the
  // caller wants regions; 0 keeps every natural cluster.
  std::vector<std::uint32_t> coalesced(clusters);
  std::size_t merged_count = clusters;
  if (target_regions >= 1 && target_regions < clusters) {
    merged_count = target_regions;
    for (std::uint32_t c = 0; c < clusters; ++c) {
      coalesced[c] = static_cast<std::uint32_t>(c % target_regions);
    }
  } else {
    for (std::uint32_t c = 0; c < clusters; ++c) coalesced[c] = c;
  }

  // Renumber by smallest member node id for a canonical labeling.
  std::vector<NodeId> smallest(merged_count, kInvalidNode);
  for (NodeId id = 0; id < cluster_of.size(); ++id) {
    if (cluster_of[id] == kInvalidRegion) continue;
    const std::uint32_t r = coalesced[cluster_of[id]];
    smallest[r] = std::min(smallest[r], id);
  }
  std::vector<std::uint32_t> order(merged_count);
  for (std::uint32_t r = 0; r < merged_count; ++r) order[r] = r;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return smallest[a] < smallest[b];
  });
  std::vector<std::uint32_t> relabel(merged_count, kInvalidRegion);
  for (std::uint32_t rank = 0; rank < merged_count; ++rank) {
    relabel[order[rank]] = rank;
  }
  for (NodeId id = 0; id < cluster_of.size(); ++id) {
    if (cluster_of[id] != kInvalidRegion) {
      map.region_of[id] = relabel[coalesced[cluster_of[id]]];
    }
  }
  map.count = merged_count;
  return map;
}

Topology MakePaperTopology(const PaperTopologyParams& params) {
  assert(params.storage_count >= 1);
  assert(params.hub_count >= 1);
  Topology topo;
  util::Rng rng(params.seed);

  const NodeId vw = topo.AddWarehouse("VW");

  const std::size_t hubs = std::min(params.hub_count, params.storage_count);
  std::vector<NodeId> hub_ids;
  std::vector<NodeId> all_is;
  hub_ids.reserve(hubs);

  auto jittered_rate = [&]() {
    const double j = rng.Uniform(1.0 - params.rate_jitter, 1.0 + params.rate_jitter);
    return params.base_nrate * j;
  };

  for (std::size_t h = 0; h < hubs; ++h) {
    const NodeId id = topo.AddStorage("IS-hub" + std::to_string(h),
                                      params.storage_capacity, params.srate);
    hub_ids.push_back(id);
    all_is.push_back(id);
    topo.AddLink(vw, id, jittered_rate());
  }
  // Remaining storages are leaves, round-robin across hubs.
  std::vector<std::vector<NodeId>> hub_leaves(hubs);
  for (std::size_t i = hubs; i < params.storage_count; ++i) {
    const std::size_t h = (i - hubs) % hubs;
    const NodeId id = topo.AddStorage("IS-leaf" + std::to_string(i - hubs),
                                      params.storage_capacity, params.srate);
    all_is.push_back(id);
    topo.AddLink(hub_ids[h], id, jittered_rate());
    hub_leaves[h].push_back(id);
  }

  if (params.cross_links) {
    // Link consecutive leaves within a hub (cheap neighborhood exchange)
    // and consecutive hubs (regional backbone ring).
    for (std::size_t h = 0; h < hubs; ++h) {
      const auto& leaves = hub_leaves[h];
      for (std::size_t i = 0; i + 1 < leaves.size(); ++i) {
        topo.AddLink(leaves[i], leaves[i + 1], jittered_rate());
      }
    }
    for (std::size_t h = 0; h + 1 < hubs; ++h) {
      topo.AddLink(hub_ids[h], hub_ids[h + 1], jittered_rate());
    }
    if (hubs > 2) topo.AddLink(hub_ids[hubs - 1], hub_ids[0], jittered_rate());
  }

  return topo;
}

}  // namespace vor::net
