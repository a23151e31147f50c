#include "core/overflow.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace vor::core {
namespace {

using testing::OneVideoCatalog;
using testing::SmallTopology;

struct Env {
  Env() : topo(SmallTopology(2)), catalog(OneVideoCatalog()), router(topo),
          cm(topo, router, catalog) {}
  net::Topology topo;
  media::Catalog catalog;
  net::Router router;
  CostModel cm;
};

Residency MakeResidency(net::NodeId node, double start_h, double last_h) {
  Residency c;
  c.location = node;
  c.source = 0;
  c.t_start = util::Hours(start_h);
  c.t_last = util::Hours(last_h);
  return c;
}

TEST(OverflowTest, NoResidenciesNoOverflow) {
  Env env;
  Schedule s;
  EXPECT_TRUE(DetectOverflows(s, env.cm).empty());
}

TEST(OverflowTest, SingleResidencyWithinCapacity) {
  Env env;  // 100 GB capacity, 1 GB video
  Schedule s;
  FileSchedule f;
  f.video = 0;
  f.residencies.push_back(MakeResidency(1, 1, 5));
  s.files.push_back(f);
  EXPECT_TRUE(DetectOverflows(s, env.cm).empty());
}

TEST(OverflowTest, DetectsOverlapBeyondCapacity) {
  Env env;
  env.topo.SetUniformStorageCapacity(util::Bytes{1.5e9});  // fits 1, not 2
  Schedule s;
  FileSchedule f;
  f.video = 0;
  f.residencies.push_back(MakeResidency(1, 1, 5));   // occupies [1h, 6h)
  f.residencies.push_back(MakeResidency(1, 3, 8));   // occupies [3h, 9h)
  s.files.push_back(f);

  const auto overflows = DetectOverflows(s, env.cm);
  ASSERT_EQ(overflows.size(), 1u);
  EXPECT_EQ(overflows[0].node, 1u);
  EXPECT_DOUBLE_EQ(overflows[0].window.start.value(), 3 * 3600.0);
  // Both residencies at full height until the first starts draining at 5h;
  // the drain reaches 0.5e9 (total 1.5e9) at 5.5h.
  EXPECT_NEAR(overflows[0].window.end.value(), 5.5 * 3600.0, 1.0);
  EXPECT_NEAR(overflows[0].peak_bytes, 2e9, 1e3);
  EXPECT_EQ(overflows[0].contributors.size(), 2u);
}

TEST(OverflowTest, ContributorsCarryResidencyRefs) {
  Env env;
  env.topo.SetUniformStorageCapacity(util::Bytes{1.5e9});
  Schedule s;
  FileSchedule f0;
  f0.video = 0;
  f0.residencies.push_back(MakeResidency(1, 1, 5));
  FileSchedule f1;
  f1.video = 0;
  f1.residencies.push_back(MakeResidency(1, 2, 6));
  s.files.push_back(f0);
  s.files.push_back(f1);
  const auto overflows = DetectOverflows(s, env.cm);
  ASSERT_EQ(overflows.size(), 1u);
  ASSERT_EQ(overflows[0].contributors.size(), 2u);
  EXPECT_EQ(overflows[0].contributors[0], (ResidencyRef{0, 0}));
  EXPECT_EQ(overflows[0].contributors[1], (ResidencyRef{1, 0}));
}

TEST(OverflowTest, SeparateNodesSeparateWindows) {
  Env env;
  env.topo.SetUniformStorageCapacity(util::Bytes{0.5e9});
  Schedule s;
  FileSchedule f;
  f.video = 0;
  f.residencies.push_back(MakeResidency(1, 1, 5));
  f.residencies.push_back(MakeResidency(2, 2, 6));
  s.files.push_back(f);
  const auto overflows = DetectOverflows(s, env.cm);
  ASSERT_EQ(overflows.size(), 2u);
  EXPECT_EQ(overflows[0].node, 1u);
  EXPECT_EQ(overflows[1].node, 2u);
}

TEST(OverflowTest, TotalExcessIsPositiveIffOverflow) {
  Env env;
  env.topo.SetUniformStorageCapacity(util::Bytes{1.5e9});
  Schedule s;
  FileSchedule f;
  f.video = 0;
  f.residencies.push_back(MakeResidency(1, 1, 5));
  s.files.push_back(f);
  {
    const storage::Load load(s, env.cm);
    EXPECT_DOUBLE_EQ(TotalExcess(load), 0.0);
  }
  s.files[0].residencies.push_back(MakeResidency(1, 3, 8));
  {
    const storage::Load load(s, env.cm);
    // Excess = 0.5e9 over [3h, 5h] plus a draining tail [5h, 5.5h]:
    // integral of (usage - 1.5e9) = 0.5e9*2h + 0.5*0.5e9*0.5h.
    const double expected = 0.5e9 * 2 * 3600.0 + 0.5 * 0.5e9 * 0.5 * 3600.0;
    EXPECT_NEAR(TotalExcess(load), expected, 1e6);
  }
}

TEST(OverflowTest, BuildUsageExcludingFileDropsItsPieces) {
  Env env;
  Schedule s;
  FileSchedule f0;
  f0.video = 0;
  f0.residencies.push_back(MakeResidency(1, 1, 5));
  FileSchedule f1;
  f1.video = 0;
  f1.residencies.push_back(MakeResidency(1, 2, 6));
  s.files.push_back(f0);
  s.files.push_back(f1);

  const storage::Load all(s, env.cm);
  const storage::Load without0(s, env.cm, std::vector<std::size_t>{1});
  EXPECT_NEAR(all.SpacePeak(1), 2e9, 1e3);
  EXPECT_NEAR(without0.SpacePeak(1), 1e9, 1e3);
  EXPECT_NEAR(all.Excluding(0).Find(all.SpaceKey(1)).Max(), 1e9, 1e3);
  EXPECT_DOUBLE_EQ(all.SpacePeak(2), 0.0);
}

TEST(OverflowTest, ZeroDurationResidencyNeverOverflows) {
  Env env;
  env.topo.SetUniformStorageCapacity(util::Bytes{0.1e9});
  Schedule s;
  FileSchedule f;
  f.video = 0;
  f.residencies.push_back(MakeResidency(1, 2, 2));  // gamma = 0
  s.files.push_back(f);
  EXPECT_TRUE(DetectOverflows(s, env.cm).empty());
}

}  // namespace
}  // namespace vor::core
