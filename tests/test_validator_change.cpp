// The change check against the full one.  sim::ValidateChange reads only
// what one in-place solve wrote; under its contract it must report what
// sim::ValidateSchedule reports, line for line.  Multi-close horizons
// replay through core::IncrementalSolve the way the service closes
// cycles (an attempt the full check rejects is reverted and its batch
// halved), and both checks run on every attempt.  Then each corruption
// below, made inside one attempt's change, must be reported by both.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "sim/validator.hpp"
#include "test_helpers.hpp"
#include "workload/scenario.hpp"

namespace vor::sim {
namespace {

using core::Delivery;
using core::PlanCut;
using core::Residency;
using core::Schedule;
using core::SolveOutput;
using core::SolveUndo;
using Kind = Violation::Kind;
using Batches = std::vector<std::vector<workload::Request>>;

/// A report as the suite compares it: one line per violation, in order.
std::vector<std::string> Lines(const ValidationReport& report) {
  std::vector<std::string> lines;
  for (const Violation& v : report.violations) {
    lines.push_back(ToString(v.kind) + ": " + v.detail);
  }
  return lines;
}

/// One slot an attempt re-planned, read off its undo: the deliveries and
/// caches it kept (none for a SORP victim), and its cut (null for a
/// victim phase 1 did not touch).
struct Slot {
  std::size_t file = 0;
  std::size_t kept_deliveries = 0;
  std::size_t kept_caches = 0;
  const PlanCut* cut = nullptr;
  bool victim = false;
};

std::vector<Slot> Slots(const SolveUndo& undo) {
  std::vector<Slot> slots;
  for (const auto& [file, cut] : undo.cuts()) {
    slots.push_back(
        Slot{file, cut.kept_deliveries(), cut.kept_caches(), &cut, false});
  }
  for (const auto& [file, plan] : undo.displaced()) {
    const auto cut =
        std::find_if(slots.begin(), slots.end(),
                     [&](const Slot& s) { return s.file == file; });
    if (cut == slots.end()) {
      slots.push_back(Slot{file, 0, 0, nullptr, true});
    } else {
      *cut = Slot{file, 0, 0, cut->cut, true};
    }
  }
  return slots;
}

/// One solve attempt, as both checks see it.
struct Attempt {
  const core::CostModel& cm;
  const Schedule& schedule;
  const std::vector<workload::Request>& requests;
  std::size_t first_new;
  const SolveUndo& undo;
};

/// Both checks of `schedule`, the attempt's result or a corrupted copy
/// of it, must report the same lines; returns them.
std::vector<std::string> ExpectAgree(const Attempt& a,
                                     const Schedule& schedule) {
  const std::vector<std::string> change = Lines(
      ValidateChange(schedule, a.requests, a.cm, a.undo, a.first_new));
  const std::vector<std::string> full =
      Lines(ValidateSchedule(schedule, a.requests, a.cm));
  EXPECT_EQ(change, full);
  return full;
}

/// What a replay exercised, summed over its attempts.
struct Tally {
  std::size_t attempts = 0;
  std::size_t reverted = 0;
  /// Over the slots that are not SORP victims.
  std::size_t kept_deliveries = 0;
  std::size_t cut_deliveries = 0;
  std::size_t appended_services = 0;
  std::size_t victims = 0;
  /// Victims phase 1 did not touch.
  std::size_t untouched_victims = 0;
};

struct Horizon {
  workload::Scenario scenario;
  Batches batches;
  core::SchedulerOptions options;
  /// Each close starts from the state a restore builds: every flag 0,
  /// and one touched title's deliveries listed in reverse.
  bool restored = false;
};

Horizon Make(double capacity_gb, bool interleaved) {
  Horizon h;
  h.scenario = workload::MakeScenario(testing::ReplayParams(capacity_gb));
  h.batches = interleaved ? testing::Interleaved(h.scenario.requests, 5)
                          : testing::Chronological(h.scenario.requests, 6);
  h.options.parallel.threads = 2;
  return h;
}

/// The loose append-only horizon: kept prefixes, and kept caches that
/// serve later requests.
Horizon Loose() { return Make(100, false); }
/// Late requests that start before committed ones: cuts that take
/// deliveries.
Horizon Late() { return Make(100, true); }
/// Tight storage: SORP victims, some of them titles the close did not
/// touch.
Horizon Tight() { return Make(5, false); }

/// Replays the horizon's closes in place, as the service does: each
/// attempt appends its batch to the log and solves; an attempt the full
/// check rejects is reverted and the newer half of its batch dropped.
/// Both checks must agree on every attempt; `visit` then sees it.
Tally Replay(const Horizon& h,
             const std::function<void(const Attempt&)>& visit = {}) {
  const core::VorScheduler scheduler(h.scenario.topology, h.scenario.catalog,
                                     h.options);
  SolveOutput state;
  std::vector<workload::Request> requests;
  Tally tally;
  for (std::vector<workload::Request> batch : h.batches) {
    if (h.restored) {
      state.resumable.assign(state.schedule.files.size(), 0);
      testing::ReverseOneTouchedPlan(state.schedule, batch);
    }
    const std::size_t first_new = requests.size();
    while (!batch.empty()) {
      requests.insert(requests.end(), batch.begin(), batch.end());
      util::Result<SolveUndo> undo =
          core::IncrementalSolve(scheduler, state, requests, first_new);
      if (!undo.ok()) {
        ADD_FAILURE() << undo.error().message;
        return tally;
      }
      ++tally.attempts;
      for (const Slot& slot : Slots(*undo)) {
        if (slot.victim) {
          ++tally.victims;
          tally.untouched_victims += slot.cut == nullptr ? 1 : 0;
          continue;
        }
        tally.kept_deliveries += slot.kept_deliveries;
        tally.cut_deliveries += slot.cut->deliveries().size();
        const std::vector<Residency>& caches =
            state.schedule.files[slot.file].residencies;
        for (std::size_t i = 0; i < slot.kept_caches; ++i) {
          tally.appended_services +=
              caches[i].services.size() - slot.cut->kept_services(i);
        }
      }
      const Attempt attempt{scheduler.cost_model(), state.schedule, requests,
                            first_new, *undo};
      const bool clean = ExpectAgree(attempt, state.schedule).empty();
      if (visit) visit(attempt);
      if (clean) break;
      std::move(*undo).Revert(state);
      requests.resize(first_new);
      batch.resize(batch.size() / 2);
      ++tally.reverted;
    }
  }
  return tally;
}

TEST(ValidatorChangeTest, LooseHorizonAgrees) {
  const Tally tally = Replay(Loose());
  EXPECT_EQ(tally.victims, 0u);
  EXPECT_GT(tally.kept_deliveries, 0u);
  EXPECT_GT(tally.appended_services, 0u);
}

TEST(ValidatorChangeTest, LateRequestsAgree) {
  const Tally tally = Replay(Late());
  EXPECT_GT(tally.kept_deliveries, 0u);
  EXPECT_GT(tally.cut_deliveries, 0u);
}

TEST(ValidatorChangeTest, TightHorizonWithVictimsAgrees) {
  const Tally tally = Replay(Tight());
  EXPECT_GT(tally.victims, tally.untouched_victims);
  EXPECT_GT(tally.untouched_victims, 0u);
}

TEST(ValidatorChangeTest, StreamCappedHorizonAgrees) {
  Horizon h = Loose();
  // About two typical streams per link: no title resumes.
  h.scenario.topology.SetUniformBandwidthCap(util::BytesPerSecond{1.2e6});
  const Tally tally = Replay(h);
  EXPECT_GT(tally.attempts, 0u);
  EXPECT_EQ(tally.kept_deliveries, 0u);
}

TEST(ValidatorChangeTest, RestoredHorizonAgrees) {
  for (const bool interleaved : {false, true}) {
    Horizon h = Make(5, interleaved);
    h.restored = true;
    const Tally tally = Replay(h);
    EXPECT_GT(tally.attempts, 0u);
    EXPECT_EQ(tally.kept_deliveries, 0u);
  }
}

TEST(ValidatorChangeTest, RejectedAttemptsAgree) {
  // One SORP commit per solve leaves tight closes overflowing: the full
  // check rejects them, and each is reverted and its batch halved.
  Horizon h = Tight();
  h.options.max_sorp_iterations = 1;
  const Tally tally = Replay(h);
  EXPECT_GT(tally.reverted, 0u);
}

// ---- corruptions inside the change ----------------------------------------

/// Corrupts `schedule`, a copy of the attempt's result, inside the
/// attempt's change; false when the attempt offers no such record.
using Corruption = std::function<bool(Schedule&, const Attempt&)>;

/// Replays `h` and corrupts a copy of every attempt's result: both
/// checks must report the same lines, `kind` among them.
void ExpectBothReject(const Horizon& h, Kind kind, const Corruption& corrupt) {
  std::size_t corrupted = 0;
  Replay(h, [&](const Attempt& a) {
    Schedule copy = a.schedule;
    if (!corrupt(copy, a)) return;
    ++corrupted;
    const std::vector<std::string> lines = ExpectAgree(a, copy);
    EXPECT_TRUE(std::any_of(lines.begin(), lines.end(),
                            [&](const std::string& line) {
                              return line.starts_with(ToString(kind) + ":");
                            }))
        << "no " << ToString(kind) << " after corruption " << corrupted;
  });
  EXPECT_GT(corrupted, 0u) << "no attempt offered a record to corrupt";
}

/// Calls `edit` on the first delivery the attempt wrote that `pick`
/// accepts, with its slot; false when there is none.
bool EditChangedDelivery(
    Schedule& s, const Attempt& a,
    const std::function<bool(const Slot&, const Delivery&)>& pick,
    const std::function<void(const Slot&, std::vector<Delivery>&,
                             std::size_t)>& edit) {
  for (const Slot& slot : Slots(a.undo)) {
    std::vector<Delivery>& deliveries = s.files[slot.file].deliveries;
    for (std::size_t i = slot.kept_deliveries; i < deliveries.size(); ++i) {
      if (pick(slot, deliveries[i])) {
        edit(slot, deliveries, i);
        return true;
      }
    }
  }
  return false;
}

bool Any(const Slot&, const Delivery&) { return true; }

TEST(ValidatorChangeCorruptionTest, DroppedCutRequest) {
  ExpectBothReject(Late(), Kind::kUnservedRequest,
                   [](Schedule& s, const Attempt& a) {
                     for (const Slot& slot : Slots(a.undo)) {
                       if (slot.victim || slot.cut->deliveries().empty()) {
                         continue;
                       }
                       const std::size_t r =
                           slot.cut->deliveries().front().request_index;
                       return EditChangedDelivery(
                           s, a,
                           [&](const Slot& at, const Delivery& d) {
                             return at.file == slot.file &&
                                    d.request_index == r;
                           },
                           [](const Slot&, std::vector<Delivery>& ds,
                              std::size_t i) {
                             ds.erase(ds.begin() +
                                      static_cast<std::ptrdiff_t>(i));
                           });
                     }
                     return false;
                   });
}

/// Drops a delivery of a committed request from a SORP victim that
/// phase 1 did (`touched`) or did not touch.
Corruption DropVictimRequest(bool touched) {
  return [touched](Schedule& s, const Attempt& a) {
    return EditChangedDelivery(
        s, a,
        [&](const Slot& slot, const Delivery& d) {
          return slot.victim && (slot.cut != nullptr) == touched &&
                 d.request_index < a.first_new;
        },
        [](const Slot&, std::vector<Delivery>& ds, std::size_t i) {
          ds.erase(ds.begin() + static_cast<std::ptrdiff_t>(i));
        });
  };
}

TEST(ValidatorChangeCorruptionTest, DroppedRequestOfUntouchedVictim) {
  ExpectBothReject(Tight(), Kind::kUnservedRequest, DropVictimRequest(false));
}

TEST(ValidatorChangeCorruptionTest, DroppedRequestOfTouchedVictim) {
  ExpectBothReject(Tight(), Kind::kUnservedRequest, DropVictimRequest(true));
}

TEST(ValidatorChangeCorruptionTest, NewRequestServedTwice) {
  ExpectBothReject(
      Loose(), Kind::kDuplicateService, [](Schedule& s, const Attempt& a) {
        return EditChangedDelivery(
            s, a,
            [&](const Slot&, const Delivery& d) {
              return d.request_index >= a.first_new;
            },
            [](const Slot&, std::vector<Delivery>& ds, std::size_t i) {
              ds.push_back(ds[i]);
            });
      });
}

TEST(ValidatorChangeCorruptionTest, KeptRequestServedAgain) {
  // A changed delivery serving a request the kept prefix still serves.
  ExpectBothReject(Loose(), Kind::kDuplicateService,
                   [](Schedule& s, const Attempt& a) {
                     for (const Slot& slot : Slots(a.undo)) {
                       if (slot.kept_deliveries == 0) continue;
                       std::vector<Delivery>& ds =
                           s.files[slot.file].deliveries;
                       ds.push_back(ds.front());
                       return true;
                     }
                     return false;
                   });
}

TEST(ValidatorChangeCorruptionTest, DeliveryFromACacheNotCoveringItsStart) {
  ExpectBothReject(
      Loose(), Kind::kInvalidSource, [](Schedule& s, const Attempt& a) {
        return EditChangedDelivery(
            s, a,
            [&](const Slot& slot, const Delivery& d) {
              // Served from the requester's own site, where no copy of
              // the title is held at the time.
              return std::none_of(
                  s.files[slot.file].residencies.begin(),
                  s.files[slot.file].residencies.end(),
                  [&](const Residency& c) {
                    return c.location == d.destination() &&
                           c.t_start <= d.start && d.start <= c.t_last;
                  });
            },
            [](const Slot&, std::vector<Delivery>& ds, std::size_t i) {
              ds[i].route = {ds[i].destination()};
            });
      });
}

TEST(ValidatorChangeCorruptionTest, BrokenRoute) {
  ExpectBothReject(
      Loose(), Kind::kBrokenRoute, [](Schedule& s, const Attempt& a) {
        return EditChangedDelivery(
            s, a, Any,
            [](const Slot&, std::vector<Delivery>& ds, std::size_t i) {
              std::vector<net::NodeId> route(ds[i].route.begin(),
                                             ds[i].route.end());
              route.insert(route.begin(), route.front());  // no self-links
              ds[i].route = route;
            });
      });
}

TEST(ValidatorChangeCorruptionTest, RouteEndingElsewhere) {
  ExpectBothReject(
      Loose(), Kind::kBadRouteEndpoints, [](Schedule& s, const Attempt& a) {
        return EditChangedDelivery(
            s, a, Any,
            [&](const Slot&, std::vector<Delivery>& ds, std::size_t i) {
              for (const net::NodeId n : a.cm.topology().StorageNodes()) {
                if (n == ds[i].destination() || n == ds[i].origin()) continue;
                ds[i].route =
                    a.cm.router().CheapestPath(ds[i].origin(), n).nodes;
                return;
              }
            });
      });
}

TEST(ValidatorChangeCorruptionTest, WrongStartTime) {
  ExpectBothReject(
      Loose(), Kind::kWrongStartTime, [](Schedule& s, const Attempt& a) {
        return EditChangedDelivery(
            s, a,
            [](const Slot&, const Delivery& d) {
              return d.request_index != core::kNoRequest;
            },
            [](const Slot&, std::vector<Delivery>& ds, std::size_t i) {
              ds[i].start += util::Seconds{1.0};
            });
      });
}

/// Calls `edit` on the first kept cache (open at its slot's split) that
/// `pick` accepts, with its kept service count; false when there is none.
bool EditKeptCache(
    Schedule& s, const Attempt& a,
    const std::function<bool(const Residency&, std::size_t)>& pick,
    const std::function<void(Residency&, std::size_t)>& edit) {
  for (const Slot& slot : Slots(a.undo)) {
    for (std::size_t i = 0; i < slot.kept_caches; ++i) {
      Residency& c = s.files[slot.file].residencies[i];
      const std::size_t kept = slot.cut->kept_services(i);
      if (pick(c, kept)) {
        edit(c, kept);
        return true;
      }
    }
  }
  return false;
}

TEST(ValidatorChangeCorruptionTest, AppendedServiceOutOfOrder) {
  // The first service appended to a kept cache starts before its last
  // kept one.
  ExpectBothReject(
      Loose(), Kind::kInconsistentResidency,
      [](Schedule& s, const Attempt& a) {
        const auto start = [&](std::size_t r) {
          return a.requests[r].start_time;
        };
        return EditKeptCache(
            s, a,
            [&](const Residency& c, std::size_t kept) {
              return c.services.size() > kept &&
                     start(c.services.front()) < start(c.services[kept - 1]);
            },
            [](Residency& c, std::size_t kept) {
              c.services[kept] = c.services.front();
            });
      });
}

TEST(ValidatorChangeCorruptionTest, AppendedServiceOutsideWindow) {
  // The last service appended to a kept cache starts after its t_last.
  ExpectBothReject(
      Loose(), Kind::kServiceOutsideWindow, [](Schedule& s, const Attempt& a) {
        const auto latest = std::max_element(
            a.requests.begin(), a.requests.end(),
            [](const auto& x, const auto& y) {
              return x.start_time < y.start_time;
            });
        return EditKeptCache(
            s, a,
            [&](const Residency& c, std::size_t kept) {
              return c.services.size() > kept &&
                     latest->start_time > c.t_last;
            },
            [&](Residency& c, std::size_t) {
              c.services.back() =
                  static_cast<std::size_t>(latest - a.requests.begin());
            });
      });
}

TEST(ValidatorChangeCorruptionTest, KeptCacheLastOffItsLastService) {
  ExpectBothReject(Loose(), Kind::kInconsistentResidency,
                   [](Schedule& s, const Attempt& a) {
                     return EditKeptCache(
                         s, a, [](const Residency&, std::size_t) {
                           return true;
                         },
                         [](Residency& c, std::size_t) {
                           c.t_last += util::Seconds{1.0};
                         });
                   });
}

/// The first cache the attempt opened (after its slot's kept ones), or
/// null.
Residency* OpenedCache(Schedule& s, const Attempt& a) {
  for (const Slot& slot : Slots(a.undo)) {
    std::vector<Residency>& caches = s.files[slot.file].residencies;
    if (caches.size() > slot.kept_caches) return &caches[slot.kept_caches];
  }
  return nullptr;
}

TEST(ValidatorChangeCorruptionTest, UnanchoredNewCache) {
  ExpectBothReject(Loose(), Kind::kUnanchoredResidency,
                   [](Schedule& s, const Attempt& a) {
                     Residency* c = OpenedCache(s, a);
                     if (c == nullptr) return false;
                     c->t_start -= util::Seconds{1.0};
                     return true;
                   });
}

TEST(ValidatorChangeCorruptionTest, OverflowAtATouchedNode) {
  // Copies of a cache the attempt opened, each anchored and in order,
  // until its node holds more than its capacity.
  ExpectBothReject(
      Loose(), Kind::kCapacityExceeded, [](Schedule& s, const Attempt& a) {
        for (const Slot& slot : Slots(a.undo)) {
          std::vector<Residency>& caches = s.files[slot.file].residencies;
          if (caches.size() <= slot.kept_caches) continue;
          const Residency copy = caches[slot.kept_caches];
          const double height =
              a.cm.OccupancyPiece(copy, s.files[slot.file].video, 0).height;
          const double capacity =
              a.cm.topology().node(copy.location).capacity.value();
          if (height <= 0.0 || capacity / height > 1000.0) continue;
          caches.insert(caches.end(),
                        static_cast<std::size_t>(capacity / height) + 1, copy);
          return true;
        }
        return false;
      });
}

}  // namespace
}  // namespace vor::sim
