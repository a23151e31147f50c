// Fault-injection tests: the validator must catch each class of corruption
// we can introduce into an otherwise-valid schedule.
#include "sim/validator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
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
  ghost.location = ex_.is1;
  ghost.source = ex_.vw;
  ghost.t_start = util::Hours(2.0);  // nothing streams at 2:00 am
  ghost.t_last = util::Hours(2.0);
  s.files[0].residencies.push_back(ghost);
  EXPECT_TRUE(HasViolation(s, Violation::Kind::kUnanchoredResidency));
}

/// The unanchored-residency reports, in report order.
std::vector<std::string> UnanchoredDetails(const ValidationReport& report) {
  std::vector<std::string> details;
  for (const Violation& v : report.violations) {
    if (v.kind == Violation::Kind::kUnanchoredResidency) {
      details.push_back(v.detail);
    }
  }
  return details;
}

/// The anchoring rule stated directly: some delivery of the file starts
/// when the residency does and passes its site.
std::size_t UnanchoredByScan(const Schedule& s) {
  std::size_t unanchored = 0;
  for (const core::FileSchedule& f : s.files) {
    for (const core::Residency& c : f.residencies) {
      const bool anchored = std::any_of(
          f.deliveries.begin(), f.deliveries.end(),
          [&](const core::Delivery& d) {
            return d.start == c.t_start &&
                   std::find(d.route.begin(), d.route.end(), c.location) !=
                       d.route.end();
          });
      unanchored += anchored ? 0 : 1;
    }
  }
  return unanchored;
}

TEST_F(ValidatorTest, AnchoringDoesNotDependOnDeliveryOrder) {
  // A phase-1 schedule with many residencies, plus per file one copy
  // moved off its anchor in time and one moved to a site its anchoring
  // stream does not pass.  A hostile snapshot may list deliveries in any
  // order; the verdicts must match the direct scan in every order.
  workload::ScenarioParams params;
  params.storage_count = 6;
  params.users_per_neighborhood = 6;
  params.catalog_size = 20;
  const workload::Scenario scenario = workload::MakeScenario(params);
  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);
  Schedule s = IvspSolve(scenario.requests, cm, IvspOptions{});
  const std::vector<net::NodeId> storages = scenario.topology.StorageNodes();
  std::size_t residencies = 0;
  for (core::FileSchedule& f : s.files) {
    if (f.residencies.empty()) continue;
    core::Residency late = f.residencies.front();
    late.t_start += util::Seconds{1.0};
    core::Residency moved = f.residencies.front();
    for (const net::NodeId n : storages) {
      if (n != moved.location) {
        moved.location = n;
        break;
      }
    }
    f.residencies.push_back(late);
    f.residencies.push_back(moved);
    residencies += f.residencies.size();
  }
  ASSERT_GE(residencies, 20u);
  ValidationOptions options;
  options.check_capacity = false;
  const std::size_t expected = UnanchoredByScan(s);
  ASSERT_GT(expected, 0u);
  const std::vector<std::string> sorted =
      UnanchoredDetails(ValidateSchedule(s, scenario.requests, cm, options));
  EXPECT_EQ(sorted.size(), expected);

  Schedule reversed = s;
  Schedule rotated = s;
  Schedule interleaved = s;
  for (std::size_t i = 0; i < s.files.size(); ++i) {
    auto& r = reversed.files[i].deliveries;
    std::reverse(r.begin(), r.end());
    auto& o = rotated.files[i].deliveries;
    std::rotate(o.begin(), o.begin() + o.size() / 3, o.end());
    const auto& src = s.files[i].deliveries;
    auto& m = interleaved.files[i].deliveries;
    m.clear();
    for (const std::size_t first : {0, 1}) {
      for (std::size_t j = first; j < src.size(); j += 2) m.push_back(src[j]);
    }
  }
  for (const Schedule* shuffled : {&reversed, &rotated, &interleaved}) {
    EXPECT_EQ(UnanchoredByScan(*shuffled), expected);
    EXPECT_EQ(UnanchoredDetails(
                  ValidateSchedule(*shuffled, scenario.requests, cm, options)),
              sorted);
  }
}

TEST_F(ValidatorTest, AnchoringAmongEqualStartTimes) {
  // Two streams start when the residency at IS2 does; only one passes
  // IS2.  Whatever their order among the file's other deliveries (a NaN
  // start among them), the residency is anchored, and it is not once the
  // passing stream is gone.
  const util::Seconds t = util::Hours(14.0);
  core::Residency c;
  c.location = ex_.is2;
  c.source = ex_.vw;
  c.t_start = t;
  c.t_last = t;
  const auto delivery = [](net::Route route, util::Seconds start) {
    core::Delivery d;
    d.route = std::move(route);
    d.start = start;
    return d;
  };
  const std::vector<core::Delivery> pool = {
      delivery({ex_.vw, ex_.is1}, t),
      delivery({ex_.vw, ex_.is1, ex_.is2}, t),
      delivery({ex_.vw, ex_.is1, ex_.is2}, util::Hours(13.0)),
      delivery({ex_.vw, ex_.is1, ex_.is2}, util::Hours(15.0)),
      delivery({ex_.vw, ex_.is1}, t),
      delivery({ex_.vw, ex_.is1, ex_.is2},
               util::Seconds{std::numeric_limits<double>::quiet_NaN()}),
  };
  for (const bool with_passing : {true, false}) {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (with_passing || i != 1) order.push_back(i);
    }
    std::size_t permutations = 0;
    do {
      Schedule s;
      core::FileSchedule& f = s.files.emplace_back();
      for (const std::size_t i : order) f.deliveries.push_back(pool[i]);
      f.residencies.push_back(c);
      EXPECT_EQ(HasViolation(s, Violation::Kind::kUnanchoredResidency),
                !with_passing)
          << "permutation " << permutations;
      ++permutations;
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(permutations, with_passing ? 720u : 120u);
  }
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

TEST_F(ValidatorTest, DetectsTitlesTheCatalogDoesNotHold) {
  // Pricing reads a title from the catalog: a file of an uncataloged
  // title with one direct delivery serving no request, and one holding a
  // residency, must each be reported rather than priced.
  const auto unknown = static_cast<media::VideoId>(ex_.catalog.size());
  Schedule with_file = schedule_;
  core::FileSchedule& foreign = with_file.files.emplace_back();
  foreign.video = unknown;
  core::Delivery& d = foreign.deliveries.emplace_back();
  d.route = {ex_.vw, ex_.is1};
  d.start = util::Hours(1.0);
  EXPECT_TRUE(HasViolation(with_file, Violation::Kind::kInvalidSource));

  Schedule with_residency = schedule_;
  ASSERT_FALSE(with_residency.files[0].residencies.empty());
  core::FileSchedule& holder = with_residency.files.emplace_back();
  holder.video = unknown;
  holder.residencies.push_back(with_residency.files[0].residencies[0]);
  EXPECT_TRUE(
      HasViolation(with_residency, Violation::Kind::kInconsistentResidency));
}

TEST_F(ValidatorTest, DetectsDeliveryFiledUnderAnotherTitle) {
  // A record's title is its file's.  Three direct deliveries validate
  // under the requests' title; moving one into another cataloged title's
  // file makes it serve a request that title does not answer.
  media::Video other = ex_.catalog.video(0);
  other.title = "other";
  const media::VideoId other_title = ex_.catalog.Add(other);
  Schedule s;
  s.files.resize(2);
  s.files[0].video = 0;
  s.files[1].video = other_title;
  for (std::size_t i = 0; i < ex_.requests.size(); ++i) {
    core::Delivery& d = s.files[0].deliveries.emplace_back();
    d.route =
        router_.CheapestPath(ex_.vw, ex_.requests[i].neighborhood).nodes;
    d.start = ex_.requests[i].start_time;
    d.request_index = i;
  }
  ASSERT_TRUE(ValidateSchedule(s, ex_.requests, cm_).ok());

  s.files[1].deliveries.push_back(s.files[0].deliveries[1]);
  s.files[0].deliveries.erase(s.files[0].deliveries.begin() + 1);
  const ValidationReport report = ValidateSchedule(s, ex_.requests, cm_);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::kInvalidSource);
}

TEST_F(ValidatorTest, DetectsNonFiniteTimes) {
  // A NaN never compares equal to itself, so a timeline sweep over one
  // would never advance: such a residency is reported, not loaded.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const bool last : {false, true}) {
    for (const double bad : {nan, inf}) {
      Schedule s = schedule_;
      ASSERT_FALSE(s.files[0].residencies.empty());
      core::Residency& c = s.files[0].residencies[0];
      (last ? c.t_last : c.t_start) = util::Seconds{bad};
      EXPECT_TRUE(HasViolation(s, Violation::Kind::kInconsistentResidency))
          << (last ? "t_last " : "t_start ") << bad;
    }
  }
  for (const double bad : {nan, -inf}) {
    Schedule s = schedule_;
    core::Delivery d = s.files[0].deliveries[0];
    d.request_index = core::kNoRequest;
    d.start = util::Seconds{bad};
    s.files[0].deliveries.push_back(d);
    EXPECT_TRUE(HasViolation(s, Violation::Kind::kWrongStartTime)) << bad;
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
