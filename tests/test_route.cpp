// net::Route: a delivery's node sequence, inline up to kInlineNodes ids
// and on the heap beyond.  Every operation must behave the same on both
// sides of that line and across it.
#include "net/route.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "io/binary.hpp"
#include "io/serialize.hpp"
#include "media/catalog.hpp"
#include "net/generators.hpp"
#include "sim/validator.hpp"
#include "util/json.hpp"
#include "workload/generator.hpp"

namespace vor::net {
namespace {

constexpr std::size_t kInline = Route::kInlineNodes;

/// 100, 101, ... as a vector, the shape a router path has.
std::vector<NodeId> Ids(std::size_t n) {
  std::vector<NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<NodeId>(100 + i);
  return ids;
}

Route Make(const std::vector<NodeId>& ids) {
  return Route(std::span<const NodeId>(ids));
}

void ExpectIds(const Route& r, const std::vector<NodeId>& ids) {
  ASSERT_EQ(r.size(), ids.size());
  EXPECT_EQ(r.empty(), ids.empty());
  EXPECT_EQ(static_cast<std::size_t>(r.end() - r.begin()), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(r[i], ids[i]) << i;
  if (!ids.empty()) {
    EXPECT_EQ(r.front(), ids.front());
    EXPECT_EQ(r.back(), ids.back());
  }
}

/// Sizes on both sides of the inline capacity, and a line topology's
/// longest route.
const std::size_t kSizes[] = {0, 1, kInline, kInline + 1, 11};

TEST(RouteTest, FitsTheDeliveryRecord) {
  EXPECT_EQ(sizeof(Route), 24u);
  EXPECT_LE(sizeof(core::Delivery), 48u);
}

TEST(RouteTest, SizesAcrossTheInlineCapacity) {
  for (const std::size_t n : kSizes) {
    const std::vector<NodeId> ids = Ids(n);
    Route pushed;
    for (const NodeId id : ids) pushed.push_back(id);
    ExpectIds(pushed, ids);
    Route assigned;
    assigned = ids;
    ExpectIds(assigned, ids);
    EXPECT_EQ(Make(ids), pushed) << n;
    const std::vector<NodeId> walked(pushed.begin(), pushed.end());
    EXPECT_EQ(walked, ids);
  }
  ExpectIds(Route{7}, {7});
  ExpectIds(Route{1, 2, 3, 4, 5, 6}, {1, 2, 3, 4, 5, 6});
  Route listed;
  listed = {9, 8, 7, 6, 5};
  ExpectIds(listed, {9, 8, 7, 6, 5});
}

TEST(RouteTest, CopyMoveAndAssignAcrossStorage) {
  for (const std::size_t from : kSizes) {
    for (const std::size_t to : kSizes) {
      const std::vector<NodeId> src = Ids(from);
      const std::vector<NodeId> dst(to, 1);
      Route a = Make(src);

      const Route copied(a);
      ExpectIds(copied, src);

      Route copy_assigned = Make(dst);
      copy_assigned = a;
      ExpectIds(copy_assigned, src);
      ExpectIds(a, src);

      Route moved_from(a);
      const Route moved(std::move(moved_from));
      ExpectIds(moved, src);
      EXPECT_TRUE(moved_from.empty());  // NOLINT(bugprone-use-after-move)
      moved_from.push_back(3);          // a moved-from route is reusable
      ExpectIds(moved_from, {3});

      Route move_assigned = Make(dst);
      Route donor(a);
      move_assigned = std::move(donor);
      ExpectIds(move_assigned, src);
      EXPECT_TRUE(donor.empty());  // NOLINT(bugprone-use-after-move)

      Route span_assigned = Make(dst);
      span_assigned = src;
      ExpectIds(span_assigned, src);
    }
  }
}

TEST(RouteTest, SelfAssignmentKeepsTheIds) {
  for (const std::size_t n : kSizes) {
    const std::vector<NodeId> ids = Ids(n);
    Route r = Make(ids);
    Route& alias = r;
    r = alias;
    ExpectIds(r, ids);
    r = std::move(alias);
    ExpectIds(r, ids);
    // A span into the route's own ids.
    r = std::span<const NodeId>(r.begin(), r.size());
    ExpectIds(r, ids);
    if (n > 1) {
      r = std::span<const NodeId>(r.begin() + 1, r.size() - 1);
      ExpectIds(r, std::vector<NodeId>(ids.begin() + 1, ids.end()));
    }
  }
}

TEST(RouteTest, ShrinkingOnTheHeapAndGrowingAgain) {
  Route r = Make(Ids(11));
  r = {1, 2};
  ExpectIds(r, {1, 2});
  r.clear();
  EXPECT_TRUE(r.empty());
  for (const NodeId id : Ids(11)) r.push_back(id);
  ExpectIds(r, Ids(11));
  r.reserve(40);
  ExpectIds(r, Ids(11));
}

TEST(RouteTest, Equality) {
  for (const std::size_t n : kSizes) {
    const std::vector<NodeId> ids = Ids(n);
    const Route a = Make(ids);
    Route b;
    for (const NodeId id : ids) b.push_back(id);
    EXPECT_TRUE(a == b) << n;
    if (n == 0) continue;
    Route longer = b;
    longer.push_back(0);
    EXPECT_FALSE(a == longer) << n;
    Route changed = b;
    changed[n - 1] = 0;
    EXPECT_FALSE(a == changed) << n;
  }
  // The same ids equal each other whether inline or on the heap.
  Route heap = Make(Ids(11));
  heap = {1, 2};
  EXPECT_TRUE(heap == (Route{1, 2}));
}

// A chain topology makes the far neighborhoods' direct routes longer
// than the inline capacity, so the schedule mixes both storages.
TEST(RouteTest, LongRoutesSolveValidateAndRoundTrip) {
  GeneratorParams gen;
  gen.storage_count = 10;
  gen.base_nrate = util::NetworkRate{500.0 / 1e9};
  gen.srate = util::StorageRate{5.0 / 1e9 / 3600.0};
  const Topology topology = MakeChainTopology(gen);
  media::CatalogParams catalog_params;
  catalog_params.count = 20;
  const media::Catalog catalog = media::MakeSyntheticCatalog(catalog_params);
  workload::WorkloadParams wl;
  wl.users_per_neighborhood = 3;
  const std::vector<workload::Request> requests =
      workload::GenerateRequests(topology, catalog, wl);

  const core::VorScheduler scheduler(topology, catalog);
  const auto solved = scheduler.Solve(requests);
  ASSERT_TRUE(solved.ok()) << solved.error().message;
  const core::Schedule& schedule = solved->schedule;
  std::size_t longest = 0;
  for (const core::FileSchedule& f : schedule.files) {
    for (const core::Delivery& d : f.deliveries) {
      longest = std::max(longest, d.route.size());
    }
  }
  EXPECT_GT(longest, kInline);

  const sim::ValidationReport report =
      sim::ValidateSchedule(schedule, requests, scheduler.cost_model());
  EXPECT_TRUE(report.ok()) << report.violations.front().detail;

  const std::string bin = io::ScheduleToBinary(schedule);
  const auto from_bin = io::ScheduleFromBinary(bin);
  ASSERT_TRUE(from_bin.ok()) << from_bin.error().message;
  EXPECT_EQ(io::ScheduleToBinary(*from_bin), bin);
  const std::string json = io::ToJson(schedule).Dump(2);
  const auto from_json = io::ScheduleFromJson(*util::Json::Parse(json));
  ASSERT_TRUE(from_json.ok()) << from_json.error().message;
  EXPECT_EQ(io::ToJson(*from_json).Dump(2), json);
  EXPECT_EQ(io::ScheduleToBinary(*from_json), bin);
}

}  // namespace
}  // namespace vor::net
