#include "sim/validator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <sstream>
#include <unordered_set>

#include "core/overflow.hpp"
#include "core/scheduler.hpp"
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

/// A file the check reads, and the records in it that did not change:
/// `kept`'s kept deliveries, and its caches open at the split with
/// their kept services.  Null `kept`: every record changed.
struct FileChange {
  std::size_t file = 0;
  const core::PlanCut* kept = nullptr;

  [[nodiscard]] std::size_t KeptDeliveries() const {
    return kept != nullptr ? kept->kept_deliveries() : 0;
  }
  [[nodiscard]] std::size_t KeptCaches() const {
    return kept != nullptr ? kept->kept_caches() : 0;
  }
};

class Validator {
 public:
  /// Checks the records `files` (ascending) name.  Every other record
  /// must have passed a check against `requests[0..first_new)`, and
  /// `served_before` lists the requests the changed records served then.
  Validator(const core::Schedule& schedule,
            const std::vector<workload::Request>& requests,
            const core::CostModel& cost_model,
            const ValidationOptions& options, std::size_t first_new,
            std::vector<FileChange> files,
            std::vector<std::size_t> served_before)
      : schedule_(schedule),
        requests_(requests),
        cm_(cost_model),
        options_(options),
        first_new_(first_new),
        files_(std::move(files)),
        served_before_(std::move(served_before)) {
    assert(first_new_ <= requests_.size());
    for (const net::Link& l : cm_.topology().links()) {
      adjacent_.insert(Key(l.a, l.b));
      adjacent_.insert(Key(l.b, l.a));
    }
  }

  ValidationReport Run() {
    CheckServiceCoverage();
    for (const FileChange& change : files_) {
      const core::FileSchedule& file = schedule_.files[change.file];
      CheckResidencies(file, change,
                       CheckDeliveries(file, change.KeptDeliveries()));
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

  /// Every new request, and every request the changed records served
  /// before, must be served once by the changed deliveries.  Any other
  /// request is still served by its unchanged delivery, so a changed one
  /// serving it too serves it twice.
  void CheckServiceCoverage() {
    std::vector<int> served_new(requests_.size() - first_new_, 0);
    std::vector<std::size_t> served_old;
    for (const FileChange& change : files_) {
      for (const core::Delivery& d :
           std::span(schedule_.files[change.file].deliveries)
               .subspan(change.KeptDeliveries())) {
        const std::size_t r = d.request_index;
        if (r == core::kNoRequest) continue;
        if (r >= requests_.size()) {
          Report(Violation::Kind::kInvalidSource,
                 "delivery references out-of-range request");
        } else if (r >= first_new_) {
          ++served_new[r - first_new_];
        } else {
          served_old.push_back(r);
        }
      }
    }
    // Both lists ascending, so the reports come in request order.
    std::ranges::sort(served_old);
    std::ranges::sort(served_before_);
    auto old = served_old.begin();
    auto before = served_before_.begin();
    while (old != served_old.end() || before != served_before_.end()) {
      const std::size_t r =
          before == served_before_.end() ||
                  (old != served_old.end() && *old < *before)
              ? *old
              : *before;
      int served = 1;
      for (; before != served_before_.end() && *before == r; ++before) {
        served = 0;
      }
      for (; old != served_old.end() && *old == r; ++old) ++served;
      ReportCoverage(r, served);
    }
    for (std::size_t i = 0; i < served_new.size(); ++i) {
      ReportCoverage(first_new_ + i, served_new[i]);
    }
  }

  void ReportCoverage(std::size_t request, int served) {
    if (served == 0) {
      Report(Violation::Kind::kUnservedRequest,
             "request " + std::to_string(request) + " is never delivered");
    } else if (served > 1) {
      Report(Violation::Kind::kDuplicateService,
             "request " + std::to_string(request) + " delivered " +
                 std::to_string(served) + " times");
    }
  }

  /// Checks the file's deliveries from `first` on.  Returns whether the
  /// file's deliveries come in start order, which the anchoring search in
  /// CheckResidencies needs; noting it here spares that search a pass of
  /// its own.  The kept ones before `first` are in start order.
  bool CheckDeliveries(const core::FileSchedule& file, std::size_t first) {
    bool in_start_order = true;
    double last_start = first > 0
                            ? StartKey(file.deliveries[first - 1])
                            : -std::numeric_limits<double>::infinity();
    for (const core::Delivery& d : std::span(file.deliveries).subspan(first)) {
      in_start_order = in_start_order && StartKey(d) >= last_start;
      last_start = StartKey(d);
      if (d.route.empty()) {
        Report(Violation::Kind::kBrokenRoute, "empty route");
        continue;
      }
      // Pricing a delivery reads its file's title from the catalog.
      if (!cm_.catalog().Contains(file.video)) {
        Report(Violation::Kind::kInvalidSource,
               "delivery of video " + std::to_string(file.video) +
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
        if (file.video != req.video) {
          Report(Violation::Kind::kInvalidSource,
                 "delivery for request " + std::to_string(d.request_index) +
                     " is filed under another title");
        }
      }
      CheckDeliveryOrigin(file, d);
    }
    return in_start_order;
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
    os << "delivery of video " << file.video << " at t=" << d.start.value()
       << " originates at node " << origin
       << " which holds no valid copy at that time";
    Report(Violation::Kind::kInvalidSource, os.str());
  }

  /// A delivery's start as a search key.  NaN, which equals no
  /// residency start, sorts last instead of breaking the order.
  static double StartKey(const core::Delivery& d) {
    const double t = d.start.value();
    return std::isnan(t) ? std::numeric_limits<double>::infinity() : t;
  }

  /// Anchoring: some stream of the residency's title must pass its site
  /// exactly when caching starts.  The candidates are the deliveries
  /// starting then, found by binary search in start order: the file's
  /// own order when it is sorted (as a solve writes it), else `order`,
  /// its indices sorted by start.
  static bool Anchored(const core::FileSchedule& file,
                       const std::vector<std::size_t>& order,
                       const core::Residency& c) {
    const auto passes = [&](const core::Delivery& d) {
      return d.start == c.t_start &&
             std::find(d.route.begin(), d.route.end(), c.location) !=
                 d.route.end();
    };
    const double t = c.t_start.value();
    if (order.empty()) {
      return std::ranges::any_of(
          std::ranges::equal_range(file.deliveries, t, {}, StartKey), passes);
    }
    const auto key = [&](std::size_t i) {
      return StartKey(file.deliveries[i]);
    };
    return std::ranges::any_of(
        std::ranges::equal_range(order, t, {}, key),
        [&](std::size_t i) { return passes(file.deliveries[i]); });
  }

  /// Checks every cache of the file: the times of all, the anchoring of
  /// those opened after the split, and the services past the kept ones.
  void CheckResidencies(const core::FileSchedule& file,
                        const FileChange& change,
                        bool deliveries_in_start_order) {
    const std::size_t kept_caches = change.KeptCaches();
    // A hostile snapshot may list a file's deliveries in any order; sort
    // their indices once per file then.
    order_.clear();
    if (file.residencies.size() > kept_caches && !deliveries_in_start_order) {
      order_.resize(file.deliveries.size());
      std::iota(order_.begin(), order_.end(), std::size_t{0});
      std::ranges::sort(order_, {}, [&](std::size_t i) {
        return StartKey(file.deliveries[i]);
      });
    }
    for (std::size_t i = 0; i < file.residencies.size(); ++i) {
      const core::Residency& c = file.residencies[i];
      // Pricing a residency reads its file's title from the catalog, and a
      // non-finite time never lets a timeline sweep advance.
      if (!cm_.catalog().Contains(file.video)) {
        Report(Violation::Kind::kInconsistentResidency,
               "residency of video " + std::to_string(file.video) +
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
      if (i >= kept_caches && !Anchored(file, order_, c)) {
        Report(Violation::Kind::kUnanchoredResidency,
               "no stream passes node " + std::to_string(c.location) +
                   " at the residency's start time");
      }
      // Services must fall inside [t_start, t_last], be chronological, and
      // t_last must equal the last service start (Sec. 2.1: t_f is the
      // start time of the last service).  A kept cache's kept services
      // passed that when committed; they stay inside its window while
      // t_last is not before the last of them.
      std::size_t first = i < kept_caches ? change.kept->kept_services(i) : 0;
      assert(first <= c.services.size());
      util::Seconds prev{-std::numeric_limits<double>::infinity()};
      if (first > 0) {
        const util::Seconds last_kept =
            requests_[c.services[first - 1]].start_time;
        if (c.t_last < last_kept) {
          first = 0;
        } else {
          prev = last_kept;
        }
      }
      for (const std::size_t idx : std::span(c.services).subspan(first)) {
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
  std::size_t first_new_;
  std::vector<FileChange> files_;
  std::vector<std::size_t> served_before_;
  std::unordered_set<std::uint64_t> adjacent_;
  /// CheckResidencies' start order of an unsorted file's deliveries.
  std::vector<std::size_t> order_;
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
  std::vector<FileChange> files(schedule.files.size());
  for (std::size_t f = 0; f < files.size(); ++f) files[f].file = f;
  Validator v(schedule, requests, cost_model, options, 0, std::move(files),
              {});
  return v.Run();
}

ValidationReport ValidateChange(const core::Schedule& schedule,
                                const std::vector<workload::Request>& requests,
                                const core::CostModel& cost_model,
                                const core::SolveUndo& change,
                                std::size_t first_new) {
  std::vector<FileChange> files;
  std::vector<std::size_t> served_before;
  const auto served = [&](std::span<const core::Delivery> deliveries) {
    for (const core::Delivery& d : deliveries) {
      if (d.request_index != core::kNoRequest) {
        served_before.push_back(d.request_index);
      }
    }
  };
  files.reserve(change.cuts().size() + change.displaced().size());
  for (const auto& [slot, cut] : change.cuts()) {
    files.push_back(FileChange{slot, &cut});
    served(cut.deliveries());
  }
  // A SORP victim's plan is the rejective greedy's, whole.  Before the
  // solve the slot served its displaced plan's requests, or, if phase 1
  // cut it, those its cut kept and those its cut took.
  const auto cut_end = static_cast<std::ptrdiff_t>(files.size());
  for (const auto& [slot, plan] : change.displaced()) {
    const auto cut = std::ranges::lower_bound(
        files.begin(), files.begin() + cut_end, slot, {}, &FileChange::file);
    std::span<const core::Delivery> before = plan.deliveries;
    if (cut != files.begin() + cut_end && cut->file == slot) {
      before = before.first(cut->KeptDeliveries());
      cut->kept = nullptr;
    } else {
      files.push_back(FileChange{slot, nullptr});
    }
    served(before);
  }
  std::ranges::sort(files, {}, &FileChange::file);
  Validator v(schedule, requests, cost_model, ValidationOptions{}, first_new,
              std::move(files), std::move(served_before));
  return v.Run();
}

}  // namespace vor::sim
