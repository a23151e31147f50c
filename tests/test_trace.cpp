#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "workload/scenario.hpp"

namespace vor::workload {
namespace {

TEST(TraceTest, RoundTripExact) {
  const Scenario scenario = MakeScenario({});
  const std::string csv = RequestsToCsv(scenario.requests);
  const auto restored = RequestsFromCsv(csv);
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  ASSERT_EQ(restored->size(), scenario.requests.size());
  for (std::size_t i = 0; i < restored->size(); ++i) {
    EXPECT_EQ((*restored)[i].user, scenario.requests[i].user);
    EXPECT_EQ((*restored)[i].video, scenario.requests[i].video);
    EXPECT_EQ((*restored)[i].start_time, scenario.requests[i].start_time);
    EXPECT_EQ((*restored)[i].neighborhood, scenario.requests[i].neighborhood);
  }
}

TEST(TraceTest, ParsesHandWrittenTrace) {
  const std::string csv =
      "user,video,start_sec,neighborhood\n"
      "0,17,46200.5,3\n"
      "1,4,4.781e4,12\n"
      "\n"                       // blank lines are skipped
      "2,\"5\",100,1\n";          // quoted fields allowed
  const auto requests = RequestsFromCsv(csv);
  ASSERT_TRUE(requests.ok()) << requests.error().message;
  ASSERT_EQ(requests->size(), 3u);
  EXPECT_EQ((*requests)[0].video, 17u);
  EXPECT_DOUBLE_EQ((*requests)[1].start_time.value(), 47810.0);
  EXPECT_EQ((*requests)[2].video, 5u);
}

TEST(TraceTest, WindowsLineEndingsAccepted) {
  const std::string csv =
      "user,video,start_sec,neighborhood\r\n0,1,2,3\r\n";
  const auto requests = RequestsFromCsv(csv);
  ASSERT_TRUE(requests.ok());
  EXPECT_EQ(requests->size(), 1u);
}

TEST(TraceTest, ErrorsCarryLineNumbers) {
  struct Case {
    const char* csv;
    const char* needle;
  };
  const Case cases[] = {
      {"", "header"},
      {"wrong,header,row,here\n", "expected header"},
      {"user,video,start_sec,neighborhood\n1,2,3\n", "expected 4 fields"},
      {"user,video,start_sec,neighborhood\n1,2,abc,4\n", "malformed number"},
      {"user,video,start_sec,neighborhood\n1,-2,3,4\n", "negative id"},
      {"user,video,start_sec,neighborhood\n\"unterminated,2,3,4\n",
       "unterminated quote"},
  };
  for (const Case& c : cases) {
    const auto result = RequestsFromCsv(c.csv);
    ASSERT_FALSE(result.ok()) << c.csv;
    EXPECT_NE(result.error().message.find(c.needle), std::string::npos)
        << result.error().message;
  }
}

TEST(TraceTest, ReplayOrderPinsTiesCanonically) {
  // The pinned replay order is (start_time, user, video, neighborhood);
  // SortForReplay must land any shuffle of duplicates-and-ties on the
  // exact same sequence, because multi-producer service drains rely on
  // this ordering for byte-identical schedules.
  const std::vector<Request> canonical = {
      {0, 5, util::Seconds{10.0}, 1}, {1, 2, util::Seconds{10.0}, 1},
      {1, 3, util::Seconds{10.0}, 1}, {1, 3, util::Seconds{10.0}, 2},
      {0, 0, util::Seconds{20.0}, 4}, {2, 0, util::Seconds{20.0}, 3},
  };
  ASSERT_TRUE(std::is_sorted(canonical.begin(), canonical.end(),
                             ReplayOrderLess));

  std::mt19937 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Request> shuffled = canonical;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    SortForReplay(shuffled);
    for (std::size_t i = 0; i < canonical.size(); ++i) {
      EXPECT_EQ(shuffled[i].user, canonical[i].user) << i;
      EXPECT_EQ(shuffled[i].video, canonical[i].video) << i;
      EXPECT_EQ(shuffled[i].neighborhood, canonical[i].neighborhood) << i;
    }
  }

  // Irreflexive and asymmetric on equal keys (strict weak ordering).
  EXPECT_FALSE(ReplayOrderLess(canonical[0], canonical[0]));
  EXPECT_TRUE(ReplayOrderLess(canonical[1], canonical[2]));
  EXPECT_FALSE(ReplayOrderLess(canonical[2], canonical[1]));
}

TEST(TraceTest, ValidateTraceChecksEnvironment) {
  const Scenario scenario = MakeScenario({});
  EXPECT_TRUE(ValidateTrace(scenario.requests, scenario.topology,
                            scenario.catalog)
                  .ok());

  std::vector<Request> bad = scenario.requests;
  bad[0].video = 99999;
  EXPECT_FALSE(
      ValidateTrace(bad, scenario.topology, scenario.catalog).ok());

  bad = scenario.requests;
  bad[0].neighborhood = scenario.topology.warehouse();
  EXPECT_FALSE(
      ValidateTrace(bad, scenario.topology, scenario.catalog).ok());

  for (const double start : {-5.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    bad = scenario.requests;
    bad[0].start_time = util::Seconds{start};
    EXPECT_FALSE(ValidateTrace(bad, scenario.topology, scenario.catalog).ok())
        << "start " << start;
  }
}

}  // namespace
}  // namespace vor::workload
