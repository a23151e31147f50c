// Network + storage topology substrate.
//
// The paper's environment (Fig. 1 / Fig. 4): one video warehouse (VW)
// holding every title permanently, plus N intermediate storages (IS), one
// per user neighborhood, connected by a priced high-speed network.  Each
// IS has a finite capacity and a storage charging rate srate(IS) in
// $/(byte*sec); each link has a network charging rate nrate in $/byte.
// srate(VW) = 0 by definition (titles live there permanently).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/result.hpp"
#include "util/units.hpp"

namespace vor::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

enum class NodeKind : std::uint8_t { kWarehouse, kStorage };

struct NodeInfo {
  NodeId id = kInvalidNode;
  NodeKind kind = NodeKind::kStorage;
  std::string name;
  /// Storage capacity; unlimited for the warehouse.
  util::Bytes capacity{0.0};
  /// Storage charging rate; zero for the warehouse.
  util::StorageRate srate{0.0};
  /// Outgoing stream-serving I/O capacity (bytes/sec), honoured by the
  /// schedulers through storage::Load; <= 0 means uncapacitated (the
  /// base paper's assumption).  The warehouse is always uncapacitated.
  util::BytesPerSecond io_cap{0.0};
};

struct Link {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  /// Charging rate for shipping one byte across this link.
  util::NetworkRate nrate{0.0};
  /// Bandwidth capacity (bytes/sec), honoured by the schedulers through
  /// storage::Load; <= 0 means uncapacitated (the base paper's
  /// assumption).
  util::BytesPerSecond bandwidth_cap{0.0};
};

class Topology {
 public:
  /// Adds the (single) video warehouse.  Must be called exactly once.
  NodeId AddWarehouse(std::string name);

  /// Adds an intermediate storage with its capacity and charging rate.
  NodeId AddStorage(std::string name, util::Bytes capacity,
                    util::StorageRate srate);

  /// Adds an undirected link between two existing nodes.
  void AddLink(NodeId a, NodeId b, util::NetworkRate nrate,
               util::BytesPerSecond bandwidth_cap = util::BytesPerSecond{0.0});

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const std::vector<NodeInfo>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }
  [[nodiscard]] const NodeInfo& node(NodeId id) const { return nodes_.at(id); }

  [[nodiscard]] bool has_warehouse() const { return warehouse_ != kInvalidNode; }
  [[nodiscard]] NodeId warehouse() const { return warehouse_; }

  [[nodiscard]] bool IsStorage(NodeId id) const {
    return id < nodes_.size() && nodes_[id].kind == NodeKind::kStorage;
  }

  /// Ids of all intermediate-storage nodes, ascending.
  [[nodiscard]] std::vector<NodeId> StorageNodes() const;

  /// Links incident to `id` as (neighbor, link index) pairs.
  [[nodiscard]] const std::vector<std::pair<NodeId, std::size_t>>& Adjacency(
      NodeId id) const {
    return adjacency_.at(id);
  }

  /// Uniformly rescale every IS capacity (used by the Fig. 9 sweep).
  void SetUniformStorageCapacity(util::Bytes capacity);

  /// Uniformly set every IS charging rate (Fig. 7/8 sweeps).
  void SetUniformStorageRate(util::StorageRate srate);

  /// Sets the same bandwidth cap on every link (0 strips the caps).
  void SetUniformBandwidthCap(util::BytesPerSecond cap);

  /// Sets the same serving-I/O cap on every intermediate storage.
  void SetUniformStorageIoCap(util::BytesPerSecond cap);

  /// Sets one storage node's serving-I/O cap.
  void SetNodeIoCap(NodeId id, util::BytesPerSecond cap);

  /// Returns a copy of this topology with link `index` removed (what-if
  /// outage studies).  The result may fail Validate() if the link was a
  /// bridge — callers must check.
  [[nodiscard]] Topology WithoutLink(std::size_t index) const;

  /// Structural sanity: exactly one warehouse, >= 1 storage, connected
  /// graph, non-negative rates and capacities.
  [[nodiscard]] util::Status Validate() const;

 private:
  NodeId AddNode(NodeInfo info);

  std::vector<NodeInfo> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<std::pair<NodeId, std::size_t>>> adjacency_;
  NodeId warehouse_ = kInvalidNode;
};

/// Parameters for the paper's 20-node evaluation topology (Sec. 5.1).
struct PaperTopologyParams {
  /// Intermediate storages (paper: 19, plus the warehouse = 20 nodes).
  std::size_t storage_count = 19;
  /// Regional hubs directly attached to the warehouse.
  std::size_t hub_count = 4;
  util::Bytes storage_capacity = util::GB(5.0);
  util::StorageRate srate{0.0};
  /// Base per-link charging rate; each link gets rate = base * jitter,
  /// jitter uniform in [1-rate_jitter, 1+rate_jitter].
  util::NetworkRate base_nrate{0.0};
  double rate_jitter = 0.2;
  /// Extra cross links between adjacent leaves (ring-ish), giving the
  /// router real path choices.
  bool cross_links = true;
  std::uint64_t seed = 1997;
};

/// Builds a deterministic hierarchical metro topology: VW -> hubs -> leaf
/// IS nodes, plus optional leaf-to-leaf cross links.  Fig. 4 of the paper
/// is reproduced only in spirit (its print is illegible); the structure
/// preserves what the experiments depend on: multi-hop routes whose cost
/// grows with distance from the warehouse, and neighborhoods that can
/// exchange cached content more cheaply than re-fetching from the VW.
/// A negative capacity or rate in `params` yields a topology that fails
/// Validate(); a caller taking them from outside checks that.
[[nodiscard]] Topology MakePaperTopology(const PaperTopologyParams& params);

// ---- regions ------------------------------------------------------------

inline constexpr std::uint32_t kInvalidRegion =
    std::numeric_limits<std::uint32_t>::max();

/// Partition of the storage nodes into neighborhood clusters ("regions").
/// The warehouse belongs to no region: it is the shared root every region
/// fetches from, so region-local reasoning always treats it as external.
struct RegionMap {
  /// node id -> region id; kInvalidRegion for the warehouse.
  std::vector<std::uint32_t> region_of;
  /// Number of regions; ids are dense in [0, count).
  std::size_t count = 0;

  [[nodiscard]] std::uint32_t RegionOf(NodeId id) const {
    return id < region_of.size() ? region_of[id] : kInvalidRegion;
  }

  /// Region members (storage nodes, ascending) — derived, O(nodes).
  [[nodiscard]] std::vector<std::vector<NodeId>> Members() const;
};

/// Derives neighborhood clusters from the topology: a multi-source BFS
/// over the storage subgraph (the warehouse is never traversed), seeded at
/// the warehouse's direct storage neighbors in ascending node order, so
/// each cluster is the set of IS nodes closest (in hops) to one
/// warehouse-adjacent "hub"; hop ties go to the smaller-id seed.  With
/// `target_regions` == 0 every natural cluster stays its own region; with
/// N >= 1 clusters are coalesced round-robin down to at most N regions.
/// Region ids are renumbered by each region's smallest member node id, so
/// the labeling is canonical regardless of seed discovery order.
///
/// Every storage node is assigned: a storage component that only touches
/// the rest of the graph through the warehouse necessarily contains a
/// warehouse-adjacent seed of its own (Topology::Validate guarantees
/// connectivity through the warehouse).
[[nodiscard]] RegionMap MakeRegions(const Topology& topology,
                                    std::size_t target_regions);

}  // namespace vor::net
