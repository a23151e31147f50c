#include "sim/validator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/overflow.hpp"
#include "storage/load.hpp"

namespace vor::sim {

std::string ToString(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::kUnservedRequest: return "unserved-request";
    case Violation::Kind::kDuplicateService: return "duplicate-service";
    case Violation::Kind::kBadRouteEndpoints: return "bad-route-endpoints";
    case Violation::Kind::kBrokenRoute: return "broken-route";
    case Violation::Kind::kWrongStartTime: return "wrong-start-time";
    case Violation::Kind::kInvalidSource: return "invalid-source";
    case Violation::Kind::kUnanchoredResidency: return "unanchored-residency";
    case Violation::Kind::kInconsistentResidency:
      return "inconsistent-residency";
    case Violation::Kind::kServiceOutsideWindow:
      return "service-outside-window";
    case Violation::Kind::kCapacityExceeded: return "capacity-exceeded";
  }
  return "unknown";
}

namespace {

class Validator {
 public:
  Validator(const core::Schedule& schedule,
            const std::vector<workload::Request>& requests,
            const core::CostModel& cost_model,
            const ValidationOptions& options)
      : schedule_(schedule),
        requests_(requests),
        cm_(cost_model),
        options_(options) {
    for (const net::Link& l : cm_.topology().links()) {
      adjacent_.insert(Key(l.a, l.b));
      adjacent_.insert(Key(l.b, l.a));
    }
  }

  ValidationReport Run() {
    CheckServiceCoverage();
    for (const core::FileSchedule& file : schedule_.files) {
      CheckDeliveries(file);
      CheckResidencies(file);
    }
    // A storage::Load prices every residency, so it needs well-formed
    // ones (a cataloged title, finite and ordered times, a storage
    // location); the report already fails when one is not.
    if (options_.check_capacity && residencies_loadable_) CheckCapacity();
    return std::move(report_);
  }

 private:
  static std::uint64_t Key(net::NodeId a, net::NodeId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  void Report(Violation::Kind kind, std::string detail) {
    report_.violations.push_back(Violation{kind, std::move(detail)});
  }

  void CheckServiceCoverage() {
    std::vector<int> served(requests_.size(), 0);
    for (const core::FileSchedule& file : schedule_.files) {
      for (const core::Delivery& d : file.deliveries) {
        if (d.request_index == core::kNoRequest) continue;
        if (d.request_index >= requests_.size()) {
          Report(Violation::Kind::kInvalidSource,
                 "delivery references out-of-range request");
          continue;
        }
        ++served[d.request_index];
      }
    }
    for (std::size_t i = 0; i < served.size(); ++i) {
      if (served[i] == 0) {
        Report(Violation::Kind::kUnservedRequest,
               "request " + std::to_string(i) + " is never delivered");
      } else if (served[i] > 1) {
        Report(Violation::Kind::kDuplicateService,
               "request " + std::to_string(i) + " delivered " +
                   std::to_string(served[i]) + " times");
      }
    }
  }

  void CheckDeliveries(const core::FileSchedule& file) {
    for (const core::Delivery& d : file.deliveries) {
      if (d.route.empty()) {
        Report(Violation::Kind::kBrokenRoute, "empty route");
        continue;
      }
      // Pricing a delivery reads its title from the catalog.
      if (!cm_.catalog().Contains(d.video)) {
        Report(Violation::Kind::kInvalidSource,
               "delivery of video " + std::to_string(d.video) +
                   ", which the catalog does not hold");
      }
      if (!std::isfinite(d.start.value())) {
        Report(Violation::Kind::kWrongStartTime,
               "delivery starts at a non-finite time");
      }
      for (std::size_t i = 0; i + 1 < d.route.size(); ++i) {
        if (!adjacent_.count(Key(d.route[i], d.route[i + 1]))) {
          Report(Violation::Kind::kBrokenRoute,
                 "route hop " + std::to_string(d.route[i]) + "->" +
                     std::to_string(d.route[i + 1]) + " is not a link");
        }
      }
      if (d.request_index != core::kNoRequest &&
          d.request_index < requests_.size()) {
        const workload::Request& req = requests_[d.request_index];
        if (d.destination() != req.neighborhood) {
          Report(Violation::Kind::kBadRouteEndpoints,
                 "delivery for request " + std::to_string(d.request_index) +
                     " ends at node " + std::to_string(d.destination()) +
                     " instead of " + std::to_string(req.neighborhood));
        }
        if (d.start != req.start_time) {
          Report(Violation::Kind::kWrongStartTime,
                 "delivery for request " + std::to_string(d.request_index) +
                     " starts at the wrong time");
        }
        if (d.video != req.video) {
          Report(Violation::Kind::kInvalidSource,
                 "delivery carries the wrong video for request " +
                     std::to_string(d.request_index));
        }
      }
      CheckDeliveryOrigin(file, d);
    }
  }

  void CheckDeliveryOrigin(const core::FileSchedule& file,
                           const core::Delivery& d) {
    const net::NodeId origin = d.origin();
    if (origin == cm_.topology().warehouse()) return;
    // Origin must be an IS caching this video, with the delivery inside
    // the residency window.
    for (const core::Residency& c : file.residencies) {
      if (c.location != origin) continue;
      if (d.start >= c.t_start && d.start <= c.t_last) return;
    }
    std::ostringstream os;
    os << "delivery of video " << d.video << " at t=" << d.start.value()
       << " originates at node " << origin
       << " which holds no valid copy at that time";
    Report(Violation::Kind::kInvalidSource, os.str());
  }

  void CheckResidencies(const core::FileSchedule& file) {
    for (const core::Residency& c : file.residencies) {
      // Pricing a residency reads its title from the catalog, and a
      // non-finite time never lets a timeline sweep advance.
      if (!cm_.catalog().Contains(c.video)) {
        Report(Violation::Kind::kInconsistentResidency,
               "residency of video " + std::to_string(c.video) +
                   ", which the catalog does not hold");
        residencies_loadable_ = false;
        continue;
      }
      if (!std::isfinite(c.t_start.value()) ||
          !std::isfinite(c.t_last.value())) {
        Report(Violation::Kind::kInconsistentResidency,
               "residency with a non-finite time");
        residencies_loadable_ = false;
        continue;
      }
      if (c.t_last < c.t_start) {
        Report(Violation::Kind::kInconsistentResidency,
               "residency with t_last < t_start");
        residencies_loadable_ = false;
        continue;
      }
      if (!cm_.topology().IsStorage(c.location)) {
        Report(Violation::Kind::kInconsistentResidency,
               "residency located at a non-storage node");
        residencies_loadable_ = false;
        continue;
      }
      // Anchoring: some stream of this video must pass the cache site
      // exactly when caching starts.
      const bool anchored = std::any_of(
          file.deliveries.begin(), file.deliveries.end(),
          [&](const core::Delivery& d) {
            return d.start == c.t_start &&
                   std::find(d.route.begin(), d.route.end(), c.location) !=
                       d.route.end();
          });
      if (!anchored) {
        Report(Violation::Kind::kUnanchoredResidency,
               "no stream passes node " + std::to_string(c.location) +
                   " at the residency's start time");
      }
      // Services must fall inside [t_start, t_last], be chronological, and
      // t_last must equal the last service start (Sec. 2.1: t_f is the
      // start time of the last service).
      util::Seconds prev{-std::numeric_limits<double>::infinity()};
      for (const std::size_t idx : c.services) {
        if (idx >= requests_.size()) {
          Report(Violation::Kind::kInconsistentResidency,
                 "residency service references out-of-range request");
          continue;
        }
        const util::Seconds t = requests_[idx].start_time;
        if (t < c.t_start || t > c.t_last) {
          Report(Violation::Kind::kServiceOutsideWindow,
                 "service at t=" + std::to_string(t.value()) +
                     " outside caching interval");
        }
        if (t < prev) {
          Report(Violation::Kind::kInconsistentResidency,
                 "residency services are not chronological");
        }
        prev = t;
      }
      if (!c.services.empty() && c.services.back() < requests_.size()) {
        const util::Seconds last = requests_[c.services.back()].start_time;
        if (last != c.t_last) {
          Report(Violation::Kind::kInconsistentResidency,
                 "t_last does not equal the last service start");
        }
      }
    }
  }

  void CheckCapacity() {
    // Space keys come in node order, so violations do too.
    const storage::Load load(schedule_, cm_, storage::Resources::kSpace);
    for (std::size_t k = 0; k < load.keys().size(); ++k) {
      const storage::LoadKey& key = load.keys()[k];
      const double peak = load.timeline(k).Max();
      if (peak > key.cap + options_.capacity_epsilon) {
        std::ostringstream os;
        os << "node " << key.node << " peaks at " << peak
           << " bytes over capacity " << key.cap;
        Report(Violation::Kind::kCapacityExceeded, os.str());
      }
    }
  }

  const core::Schedule& schedule_;
  const std::vector<workload::Request>& requests_;
  const core::CostModel& cm_;
  ValidationOptions options_;
  std::unordered_set<std::uint64_t> adjacent_;
  /// False once a residency is inverted, off storage, of an uncataloged
  /// title or at a non-finite time: no Load takes it.
  bool residencies_loadable_ = true;
  ValidationReport report_;
};

}  // namespace

ValidationReport ValidateSchedule(const core::Schedule& schedule,
                                  const std::vector<workload::Request>& requests,
                                  const core::CostModel& cost_model,
                                  const ValidationOptions& options) {
  Validator v(schedule, requests, cost_model, options);
  return v.Run();
}

}  // namespace vor::sim
