#include "net/topology.hpp"

#include <gtest/gtest.h>

namespace vor::net {
namespace {

TEST(TopologyTest, BuildBasics) {
  Topology topo;
  const NodeId vw = topo.AddWarehouse("VW");
  const NodeId a = topo.AddStorage("A", util::GB(5), util::StorageRate{1e-12});
  const NodeId b = topo.AddStorage("B", util::GB(8), util::StorageRate{2e-12});
  topo.AddLink(vw, a, util::NetworkRate{1e-9});
  topo.AddLink(a, b, util::NetworkRate{2e-9});

  EXPECT_EQ(topo.node_count(), 3u);
  EXPECT_EQ(topo.warehouse(), vw);
  EXPECT_FALSE(topo.IsStorage(vw));
  EXPECT_TRUE(topo.IsStorage(a));
  EXPECT_EQ(topo.StorageNodes(), (std::vector<NodeId>{a, b}));
  EXPECT_EQ(topo.Adjacency(a).size(), 2u);
  EXPECT_TRUE(topo.Validate().ok());
}

TEST(TopologyTest, WarehouseHasInfiniteCapacityAndZeroRate) {
  Topology topo;
  const NodeId vw = topo.AddWarehouse("VW");
  EXPECT_TRUE(std::isinf(topo.node(vw).capacity.value()));
  EXPECT_DOUBLE_EQ(topo.node(vw).srate.value(), 0.0);
}

TEST(TopologyTest, ValidateRejectsMissingWarehouse) {
  Topology topo;
  topo.AddStorage("A", util::GB(5), util::StorageRate{0});
  const util::Status s = topo.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, util::Error::Code::kInvalidArgument);
}

TEST(TopologyTest, ValidateRejectsNoStorage) {
  Topology topo;
  topo.AddWarehouse("VW");
  EXPECT_FALSE(topo.Validate().ok());
}

TEST(TopologyTest, ValidateRejectsDisconnected) {
  Topology topo;
  const NodeId vw = topo.AddWarehouse("VW");
  const NodeId a = topo.AddStorage("A", util::GB(5), util::StorageRate{0});
  topo.AddStorage("B", util::GB(5), util::StorageRate{0});  // no links
  topo.AddLink(vw, a, util::NetworkRate{1e-9});
  EXPECT_FALSE(topo.Validate().ok());
}

TEST(TopologyTest, ValidateRejectsNegativeRates) {
  Topology topo;
  const NodeId vw = topo.AddWarehouse("VW");
  const NodeId a = topo.AddStorage("A", util::GB(5), util::StorageRate{-1.0});
  topo.AddLink(vw, a, util::NetworkRate{1e-9});
  EXPECT_FALSE(topo.Validate().ok());
}

TEST(TopologyTest, UniformSetters) {
  Topology topo;
  const NodeId vw = topo.AddWarehouse("VW");
  const NodeId a = topo.AddStorage("A", util::GB(5), util::StorageRate{1.0});
  const NodeId b = topo.AddStorage("B", util::GB(8), util::StorageRate{2.0});
  topo.AddLink(vw, a, util::NetworkRate{10.0});
  topo.AddLink(a, b, util::NetworkRate{20.0});

  topo.SetUniformStorageCapacity(util::GB(11));
  topo.SetUniformStorageRate(util::StorageRate{3.0});

  EXPECT_DOUBLE_EQ(topo.node(a).capacity.value(), 11e9);
  EXPECT_DOUBLE_EQ(topo.node(b).capacity.value(), 11e9);
  EXPECT_DOUBLE_EQ(topo.node(a).srate.value(), 3.0);
  EXPECT_TRUE(std::isinf(topo.node(vw).capacity.value()));
}

TEST(PaperTopologyTest, HasTwentyNodesAndValidates) {
  PaperTopologyParams params;
  params.base_nrate = util::NetworkRate{500.0 / 1e9};
  const Topology topo = MakePaperTopology(params);
  EXPECT_EQ(topo.node_count(), 20u);
  EXPECT_EQ(topo.StorageNodes().size(), 19u);
  EXPECT_TRUE(topo.Validate().ok());
}

TEST(PaperTopologyTest, DeterministicForSeed) {
  PaperTopologyParams params;
  params.base_nrate = util::NetworkRate{500.0 / 1e9};
  params.seed = 41;
  const Topology a = MakePaperTopology(params);
  const Topology b = MakePaperTopology(params);
  ASSERT_EQ(a.links().size(), b.links().size());
  for (std::size_t i = 0; i < a.links().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.links()[i].nrate.value(), b.links()[i].nrate.value());
  }
}

TEST(PaperTopologyTest, JitterStaysWithinBounds) {
  PaperTopologyParams params;
  params.base_nrate = util::NetworkRate{100.0};
  params.rate_jitter = 0.2;
  const Topology topo = MakePaperTopology(params);
  for (const Link& l : topo.links()) {
    EXPECT_GE(l.nrate.value(), 80.0 - 1e-9);
    EXPECT_LE(l.nrate.value(), 120.0 + 1e-9);
  }
}

TEST(PaperTopologyTest, SmallConfigurations) {
  PaperTopologyParams params;
  params.storage_count = 1;
  params.hub_count = 4;  // clamped to storage_count
  params.base_nrate = util::NetworkRate{1.0};
  const Topology topo = MakePaperTopology(params);
  EXPECT_EQ(topo.node_count(), 2u);
  EXPECT_TRUE(topo.Validate().ok());
}

TEST(TopologyTest, WithoutLinkRemovesExactlyOne) {
  Topology topo;
  const NodeId vw = topo.AddWarehouse("VW");
  const NodeId a = topo.AddStorage("A", util::GB(5), util::StorageRate{1.0});
  const NodeId b = topo.AddStorage("B", util::GB(5), util::StorageRate{1.0});
  topo.AddLink(vw, a, util::NetworkRate{1.0});
  topo.AddLink(a, b, util::NetworkRate{2.0});
  topo.AddLink(vw, b, util::NetworkRate{3.0});
  topo.SetNodeIoCap(a, util::BytesPerSecond{42.0});

  const Topology cut = topo.WithoutLink(1);
  EXPECT_EQ(cut.links().size(), 2u);
  EXPECT_TRUE(cut.Validate().ok());  // still connected via vw
  EXPECT_DOUBLE_EQ(cut.links()[0].nrate.value(), 1.0);
  EXPECT_DOUBLE_EQ(cut.links()[1].nrate.value(), 3.0);
  // Node attributes survive the copy.
  EXPECT_DOUBLE_EQ(cut.node(a).io_cap.value(), 42.0);
  EXPECT_EQ(cut.node(b).name, "B");

  // Cutting a bridge leaves a disconnected (invalid) topology.
  const Topology bridged = cut.WithoutLink(1);
  EXPECT_FALSE(bridged.Validate().ok());
}

TEST(RegionMapTest, NaturalRegionsFollowWarehouseAdjacency) {
  // VW - A - B and VW - C - D: two warehouse-adjacent seeds, so two
  // natural regions, each the seed plus its downstream chain.
  Topology topo;
  const NodeId vw = topo.AddWarehouse("VW");
  const util::StorageRate srate{1.0 / (1e9 * 3600.0)};
  const NodeId a = topo.AddStorage("A", util::GB(10), srate);
  const NodeId b = topo.AddStorage("B", util::GB(10), srate);
  const NodeId c = topo.AddStorage("C", util::GB(10), srate);
  const NodeId d = topo.AddStorage("D", util::GB(10), srate);
  const util::NetworkRate nrate{1.0 / 1e9};
  topo.AddLink(vw, a, nrate);
  topo.AddLink(a, b, nrate);
  topo.AddLink(vw, c, nrate);
  topo.AddLink(c, d, nrate);

  const RegionMap map = MakeRegions(topo, 0);
  EXPECT_EQ(map.count, 2u);
  EXPECT_EQ(map.RegionOf(vw), kInvalidRegion);
  EXPECT_EQ(map.RegionOf(a), map.RegionOf(b));
  EXPECT_EQ(map.RegionOf(c), map.RegionOf(d));
  EXPECT_NE(map.RegionOf(a), map.RegionOf(c));
  // Canonical labeling: the region containing the smallest node id is 0.
  EXPECT_EQ(map.RegionOf(a), 0u);

  const auto members = map.Members();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0], (std::vector<NodeId>{a, b}));
  EXPECT_EQ(members[1], (std::vector<NodeId>{c, d}));
}

TEST(RegionMapTest, CoalescesDownToTargetAndAssignsEveryStorage) {
  PaperTopologyParams params;
  const Topology topo = MakePaperTopology(params);

  const RegionMap natural = MakeRegions(topo, 0);
  ASSERT_GT(natural.count, 1u);
  const RegionMap two = MakeRegions(topo, 2);
  EXPECT_LE(two.count, 2u);
  // A target above the natural count changes nothing.
  const RegionMap many = MakeRegions(topo, natural.count + 10);
  EXPECT_EQ(many.count, natural.count);

  for (NodeId n = 0; n < topo.node_count(); ++n) {
    if (topo.node(n).kind == NodeKind::kWarehouse) {
      EXPECT_EQ(two.RegionOf(n), kInvalidRegion);
    } else {
      ASSERT_LT(two.RegionOf(n), two.count) << "unassigned storage " << n;
    }
  }
  // Region ids are dense: every id in [0, count) is used.
  std::vector<bool> seen(two.count, false);
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    if (two.RegionOf(n) != kInvalidRegion) seen[two.RegionOf(n)] = true;
  }
  for (std::size_t r = 0; r < two.count; ++r) EXPECT_TRUE(seen[r]);
}

TEST(RegionMapTest, DeterministicAcrossCalls) {
  PaperTopologyParams params;
  params.storage_count = 31;
  const Topology topo = MakePaperTopology(params);
  const RegionMap one = MakeRegions(topo, 0);
  const RegionMap two = MakeRegions(topo, 0);
  EXPECT_EQ(one.region_of, two.region_of);
  EXPECT_EQ(one.count, two.count);
}

}  // namespace
}  // namespace vor::net
