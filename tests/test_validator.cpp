// Fault-injection tests: the validator must catch each class of corruption
// we can introduce into an otherwise-valid schedule.
#include "sim/validator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/ivsp.hpp"
#include "test_helpers.hpp"
#include "workload/scenario.hpp"

namespace vor::sim {
namespace {

using core::IvspOptions;
using core::IvspSolve;
using core::Schedule;

class ValidatorTest : public ::testing::Test {
 protected:
  ValidatorTest()
      : router_(ex_.topology),
        cm_(ex_.topology, router_, ex_.catalog),
        schedule_(IvspSolve(ex_.requests, cm_, IvspOptions{})) {}

  bool HasViolation(const Schedule& s, Violation::Kind kind) const {
    const auto report = ValidateSchedule(s, ex_.requests, cm_);
    for (const Violation& v : report.violations) {
      if (v.kind == kind) return true;
    }
    return false;
  }

  testing::PaperExample ex_;
  net::Router router_;
  core::CostModel cm_;
  Schedule schedule_;
};

TEST_F(ValidatorTest, CleanScheduleHasNoViolations) {
  const auto report = ValidateSchedule(schedule_, ex_.requests, cm_);
  EXPECT_TRUE(report.ok());
}

TEST_F(ValidatorTest, DetectsUnservedRequest) {
  Schedule s = schedule_;
  // Drop the delivery serving request 2.
  auto& deliveries = s.files[0].deliveries;
  deliveries.erase(
      std::remove_if(deliveries.begin(), deliveries.end(),
                     [](const core::Delivery& d) {
                       return d.request_index == 2;
                     }),
      deliveries.end());
  EXPECT_TRUE(HasViolation(s, Violation::Kind::kUnservedRequest));
}

TEST_F(ValidatorTest, DetectsDuplicateService) {
  Schedule s = schedule_;
  s.files[0].deliveries.push_back(s.files[0].deliveries[0]);
  EXPECT_TRUE(HasViolation(s, Violation::Kind::kDuplicateService));
}

TEST_F(ValidatorTest, DetectsWrongDestination) {
  Schedule s = schedule_;
  s.files[0].deliveries[0].route = {ex_.vw, ex_.is1, ex_.is2};
  // Request 0 lives at IS1, not IS2.
  EXPECT_TRUE(HasViolation(s, Violation::Kind::kBadRouteEndpoints));
}

TEST_F(ValidatorTest, DetectsBrokenRoute) {
  Schedule s = schedule_;
  s.files[0].deliveries[0].route = {ex_.vw, ex_.is2, ex_.is1};  // no VW-IS2 link
  EXPECT_TRUE(HasViolation(s, Violation::Kind::kBrokenRoute));
}

TEST_F(ValidatorTest, DetectsWrongStartTime) {
  Schedule s = schedule_;
  s.files[0].deliveries[0].start += util::Minutes(5);
  EXPECT_TRUE(HasViolation(s, Violation::Kind::kWrongStartTime));
}

TEST_F(ValidatorTest, DetectsInvalidSource) {
  Schedule s = schedule_;
  // Make a delivery claim to originate at IS2, where no cache exists at
  // that time.
  core::Delivery& d = s.files[0].deliveries[0];
  d.route = {ex_.is2, ex_.is1};
  EXPECT_TRUE(HasViolation(s, Violation::Kind::kInvalidSource));
}

TEST_F(ValidatorTest, DetectsUnanchoredResidency) {
  Schedule s = schedule_;
  core::Residency ghost;
  ghost.video = 0;
  ghost.location = ex_.is1;
  ghost.source = ex_.vw;
  ghost.t_start = util::Hours(2.0);  // nothing streams at 2:00 am
  ghost.t_last = util::Hours(2.0);
  s.files[0].residencies.push_back(ghost);
  EXPECT_TRUE(HasViolation(s, Violation::Kind::kUnanchoredResidency));
}

TEST_F(ValidatorTest, DetectsInvertedResidency) {
  Schedule s = schedule_;
  ASSERT_FALSE(s.files[0].residencies.empty());
  std::swap(s.files[0].residencies[0].t_start,
            s.files[0].residencies[0].t_last);
  // Inverted interval (t_last < t_start) unless degenerate.
  if (s.files[0].residencies[0].t_last < s.files[0].residencies[0].t_start) {
    EXPECT_TRUE(HasViolation(s, Violation::Kind::kInconsistentResidency));
  }
}

TEST_F(ValidatorTest, DetectsOutOfRangeLastService) {
  // The last service is compared with t_last; an index far past the
  // request vector must be reported, not read.
  Schedule s = schedule_;
  ASSERT_FALSE(s.files[0].residencies.empty());
  s.files[0].residencies[0].services.push_back(std::size_t{1} << 52);
  EXPECT_TRUE(HasViolation(s, Violation::Kind::kInconsistentResidency));
}

TEST_F(ValidatorTest, DetectsServiceOutsideWindow) {
  Schedule s = schedule_;
  ASSERT_FALSE(s.files[0].residencies.empty());
  core::Residency& c = s.files[0].residencies[0];
  ASSERT_FALSE(c.services.empty());
  c.t_last -= util::Minutes(30);  // last service now falls outside
  EXPECT_TRUE(HasViolation(s, Violation::Kind::kServiceOutsideWindow));
}

TEST_F(ValidatorTest, DetectsCapacityExceeded) {
  // Shrink capacities below the cached copy's size.
  ex_.topology.SetUniformStorageCapacity(util::Bytes{1e8});
  const core::CostModel tight_cm(ex_.topology, router_, ex_.catalog);
  const auto report = ValidateSchedule(schedule_, ex_.requests, tight_cm);
  bool found = false;
  for (const Violation& v : report.violations) {
    found |= v.kind == Violation::Kind::kCapacityExceeded;
  }
  EXPECT_TRUE(found);
}

TEST_F(ValidatorTest, CapacityCheckCanBeDisabled) {
  ex_.topology.SetUniformStorageCapacity(util::Bytes{1e8});
  const core::CostModel tight_cm(ex_.topology, router_, ex_.catalog);
  ValidationOptions options;
  options.check_capacity = false;
  const auto report =
      ValidateSchedule(schedule_, ex_.requests, tight_cm, options);
  EXPECT_TRUE(report.ok());
}

TEST_F(ValidatorTest, CapacityViolationsComeInNodeOrder) {
  // The Table-4 world at 5 GB per IS: its phase-1 schedule overflows
  // several nodes, and the violations must name them in ascending order
  // (vorctl validate prints them, and a refused restore quotes the first).
  workload::ScenarioParams params;
  params.is_capacity = util::GB(5);
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  const workload::Scenario scenario = workload::MakeScenario(params);
  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);
  const Schedule phase1 = IvspSolve(scenario.requests, cm, IvspOptions{});
  const auto report = ValidateSchedule(phase1, scenario.requests, cm);
  std::vector<net::NodeId> nodes;
  for (const Violation& v : report.violations) {
    if (v.kind != Violation::Kind::kCapacityExceeded) continue;
    std::istringstream detail(v.detail);
    std::string word;
    net::NodeId node = net::kInvalidNode;
    detail >> word >> node;
    ASSERT_EQ(word, "node") << v.detail;
    nodes.push_back(node);
  }
  ASSERT_GE(nodes.size(), 2u) << "scenario must overflow several nodes";
  EXPECT_TRUE(std::is_sorted(nodes.begin(), nodes.end()))
      << "capacity violations out of node order";
  EXPECT_EQ(std::adjacent_find(nodes.begin(), nodes.end()), nodes.end());
}

TEST_F(ValidatorTest, ViolationKindsHaveNames) {
  EXPECT_FALSE(ToString(Violation::Kind::kUnservedRequest).empty());
  EXPECT_NE(ToString(Violation::Kind::kBrokenRoute),
            ToString(Violation::Kind::kCapacityExceeded));
}

}  // namespace
}  // namespace vor::sim
