#include "io/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/scheduler.hpp"
#include "sim/validator.hpp"
#include "workload/scenario.hpp"

namespace vor::io {
namespace {

workload::Scenario SmallScenario() {
  workload::ScenarioParams params;
  params.storage_count = 5;
  params.users_per_neighborhood = 4;
  params.catalog_size = 30;
  return workload::MakeScenario(params);
}

TEST(SerializeTest, TopologyRoundTrip) {
  const workload::Scenario scenario = SmallScenario();
  const auto restored =
      TopologyFromJson(ToJson(scenario.topology));
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  EXPECT_EQ(restored->node_count(), scenario.topology.node_count());
  EXPECT_EQ(restored->links().size(), scenario.topology.links().size());
  for (net::NodeId i = 0; i < scenario.topology.node_count(); ++i) {
    EXPECT_EQ(restored->node(i).name, scenario.topology.node(i).name);
    EXPECT_EQ(restored->node(i).kind, scenario.topology.node(i).kind);
    if (scenario.topology.IsStorage(i)) {
      EXPECT_DOUBLE_EQ(restored->node(i).capacity.value(),
                       scenario.topology.node(i).capacity.value());
      EXPECT_DOUBLE_EQ(restored->node(i).srate.value(),
                       scenario.topology.node(i).srate.value());
    }
  }
  for (std::size_t i = 0; i < scenario.topology.links().size(); ++i) {
    EXPECT_DOUBLE_EQ(restored->links()[i].nrate.value(),
                     scenario.topology.links()[i].nrate.value());
  }
}

TEST(SerializeTest, CatalogRoundTrip) {
  const workload::Scenario scenario = SmallScenario();
  const auto restored = CatalogFromJson(ToJson(scenario.catalog));
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), scenario.catalog.size());
  for (media::VideoId v = 0; v < scenario.catalog.size(); ++v) {
    EXPECT_EQ(restored->video(v).title, scenario.catalog.video(v).title);
    EXPECT_DOUBLE_EQ(restored->video(v).size.value(),
                     scenario.catalog.video(v).size.value());
    EXPECT_DOUBLE_EQ(restored->video(v).playback.value(),
                     scenario.catalog.video(v).playback.value());
  }
}

TEST(SerializeTest, RequestsRoundTrip) {
  const workload::Scenario scenario = SmallScenario();
  const auto restored = RequestsFromJson(ToJson(scenario.requests));
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), scenario.requests.size());
  for (std::size_t i = 0; i < restored->size(); ++i) {
    EXPECT_EQ((*restored)[i].user, scenario.requests[i].user);
    EXPECT_EQ((*restored)[i].video, scenario.requests[i].video);
    EXPECT_EQ((*restored)[i].start_time, scenario.requests[i].start_time);
    EXPECT_EQ((*restored)[i].neighborhood, scenario.requests[i].neighborhood);
  }
}

TEST(SerializeTest, ScheduleRoundTripStaysValid) {
  const workload::Scenario scenario = SmallScenario();
  const core::VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto solved = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(solved.ok());

  // Through text, as vorctl does.
  const std::string text = ToJson(solved->schedule).Dump(2);
  const auto json = util::Json::Parse(text);
  ASSERT_TRUE(json.ok());
  const auto restored = ScheduleFromJson(*json);
  ASSERT_TRUE(restored.ok());

  EXPECT_EQ(restored->files.size(), solved->schedule.files.size());
  EXPECT_EQ(restored->TotalDeliveries(), solved->schedule.TotalDeliveries());
  EXPECT_EQ(restored->TotalResidencies(),
            solved->schedule.TotalResidencies());
  // Cost is preserved exactly and the restored schedule still validates.
  EXPECT_DOUBLE_EQ(
      scheduler.cost_model().TotalCost(*restored).value(),
      scheduler.cost_model().TotalCost(solved->schedule).value());
  const auto report = sim::ValidateSchedule(*restored, scenario.requests,
                                            scheduler.cost_model());
  EXPECT_TRUE(report.ok());
}

TEST(SerializeTest, ScenarioBundleRoundTripSolvesIdentically) {
  const workload::Scenario scenario = SmallScenario();
  const auto json = util::Json::Parse(ScenarioToJson(scenario).Dump());
  ASSERT_TRUE(json.ok());
  const auto restored = ScenarioFromJson(*json);
  ASSERT_TRUE(restored.ok()) << restored.error().message;

  const core::VorScheduler a(scenario.topology, scenario.catalog);
  const core::VorScheduler b(restored->topology, restored->catalog);
  const auto ra = a.Solve(scenario.requests);
  const auto rb = b.Solve(restored->requests);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_DOUBLE_EQ(ra->final_cost.value(), rb->final_cost.value());
}

TEST(SerializeTest, ScenarioRejectsInvalidRequests) {
  // Scenario requests pass the one request check: a catalog title (else
  // kNotFound), a storage-node neighborhood and a finite non-negative
  // start (else kInvalidArgument).
  const workload::Scenario scenario = SmallScenario();
  std::vector<workload::Request> bad(3, scenario.requests[0]);
  bad[0].video = 99999;
  bad[1].neighborhood = scenario.topology.warehouse();
  bad[2].start_time = util::Seconds{-3600.0};
  for (std::size_t i = 0; i < bad.size(); ++i) {
    workload::Scenario corrupt = scenario;
    corrupt.requests[0] = bad[i];
    const auto restored = ScenarioFromJson(ScenarioToJson(corrupt));
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.error().code, i == 0
                                         ? util::Error::Code::kNotFound
                                         : util::Error::Code::kInvalidArgument);
    EXPECT_EQ(restored.error().message.rfind("request 0 ", 0), 0u)
        << restored.error().message;
  }
}

TEST(SerializeTest, ScenarioParamsRoundTrip) {
  workload::ScenarioParams params;
  params.nrate_per_gb = 777;
  params.srate_per_gb_hour = 2.5;
  params.is_capacity = util::GB(11);
  params.zipf_alpha = 0.5;
  params.start_profile = workload::StartTimeProfile::kEveningPeak;
  params.seed = 424242;
  const auto restored = ScenarioParamsFromJson(ToJson(params));
  ASSERT_TRUE(restored.ok());
  EXPECT_DOUBLE_EQ(restored->nrate_per_gb, 777);
  EXPECT_DOUBLE_EQ(restored->srate_per_gb_hour, 2.5);
  EXPECT_DOUBLE_EQ(restored->is_capacity.value(), 11e9);
  EXPECT_EQ(restored->start_profile, workload::StartTimeProfile::kEveningPeak);
  EXPECT_EQ(restored->seed, 424242u);
}

TEST(SerializeTest, ScenarioParamsRejectsOutOfRange) {
  // MakeScenario cannot build these: no storages, an empty catalog, or a
  // Zipf skew util::ZipfDistribution does not accept.
  std::vector<workload::ScenarioParams> bad(3);
  bad[0].catalog_size = 0;
  bad[1].storage_count = 0;
  bad[2].zipf_alpha = 2.0;
  for (const workload::ScenarioParams& params : bad) {
    const auto restored = ScenarioParamsFromJson(ToJson(params));
    ASSERT_FALSE(restored.ok()) << ToJson(params).Dump();
    EXPECT_EQ(restored.error().code, util::Error::Code::kInvalidArgument);
  }
}

TEST(SerializeTest, RejectsWrongKind) {
  const workload::Scenario scenario = SmallScenario();
  EXPECT_FALSE(CatalogFromJson(ToJson(scenario.topology)).ok());
  EXPECT_FALSE(TopologyFromJson(ToJson(scenario.catalog)).ok());
  EXPECT_FALSE(ScheduleFromJson(util::Json(42)).ok());
}

TEST(SerializeTest, RejectsCorruptTopology) {
  const workload::Scenario scenario = SmallScenario();
  util::Json j = ToJson(scenario.topology);
  // Point a link at a non-existent node.
  j.as_object()["links"].as_array()[0].as_object()["a"] = 9999;
  EXPECT_FALSE(TopologyFromJson(j).ok());
}

TEST(SerializeTest, FileHelpers) {
  const std::string path = ::testing::TempDir() + "vor_serialize_test.json";
  ASSERT_TRUE(WriteFile(path, "{\"x\": 1}").ok());
  const auto text = ReadFile(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "{\"x\": 1}");
  std::remove(path.c_str());
  EXPECT_FALSE(ReadFile(path + ".does-not-exist").ok());
}

TEST(SerializeTest, WriteFileReportsFailedWrites) {
  // /dev/full opens fine but fails every write with ENOSPC.  A small
  // payload stays in the stream buffer until close; a large one fails
  // during the write itself.  Both must surface, naming the path.
  if (!std::ifstream("/dev/full")) GTEST_SKIP() << "no /dev/full";
  for (const std::size_t size : {std::size_t{8}, std::size_t{1} << 20}) {
    const util::Status status = WriteFile("/dev/full", std::string(size, 'x'));
    ASSERT_FALSE(status.ok()) << size << " bytes";
    EXPECT_NE(status.error().message.find("/dev/full"), std::string::npos)
        << status.error().message;
  }
}

}  // namespace
}  // namespace vor::io
