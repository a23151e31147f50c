// week_of_service: operate the VOR infrastructure for a week.
//
// Runs the online reservation service over seven daily cycles on the
// same metro infrastructure: every day a fresh batch of reservations is
// submitted (each arriving at its start time), with the hot-title
// ranking drifting as releases come and go.  One cycle closes per day;
// the deferred backlog then drains as `vorctl serve` drains it.  Reports
// every close, the week's economics, and how far the committed week sits
// above the unavoidable-network lower bound.  Exits non-zero if the
// committed week fails validation.
//
// The 8 GB stores fill up from day 1 on.  Each day's batch still reaches
// the solver whole: SORP resolves the overflows the greedy creates, so
// every close commits its batch in one attempt.  A batch SORP could not
// resolve would be halved and its newer half deferred to later closes,
// and a reservation deferred more than ServiceConfig::max_deferrals
// times is dropped.
//
//   $ ./week_of_service
#include <iostream>

#include "svc/reservation_service.hpp"
#include "vor/vor.hpp"

int main() {
  using namespace vor;

  constexpr std::size_t kDays = 7;
  constexpr double kDrift = 0.15;  // ~15% of the ranking moves daily

  workload::ScenarioParams params;
  params.nrate_per_gb = 600.0;
  params.srate_per_gb_hour = 4.0;
  params.is_capacity = util::GB(8.0);
  params.start_profile = workload::StartTimeProfile::kEveningPeak;
  const workload::Scenario base = workload::MakeScenario(params);

  std::cout << "week_of_service: " << kDays << " daily cycles, "
            << params.storage_count << " neighborhoods, drift "
            << kDrift * 100 << "%/day\n\n";

  svc::ReservationService service(base.topology, base.catalog);
  util::Table table({"close", "drained", "deferred in", "admitted",
                     "deferred out", "dropped", "attempts", "cost ($)",
                     "committed"});
  const auto close = [&]() {
    const auto stats = service.CloseCycle();
    if (!stats.ok()) {
      std::cerr << "close failed: " << stats.error().message << '\n';
      return false;
    }
    table.AddRow({std::to_string(stats->cycle + 1),
                  std::to_string(stats->drained),
                  std::to_string(stats->deferred_in),
                  std::to_string(stats->admitted),
                  std::to_string(stats->deferred_out),
                  std::to_string(stats->rejected_expired +
                                 stats->rejected_deferred_full),
                  std::to_string(stats->solve_attempts),
                  util::Table::Num(stats->final_cost, 0),
                  std::to_string(stats->committed_total)});
    return true;
  };

  // Popularity ranking, drifting day over day: each moved title jumps to
  // a random rank (the upward jumps are the "new release" effect).
  std::vector<media::VideoId> rank_to_video(base.catalog.size());
  for (std::size_t i = 0; i < rank_to_video.size(); ++i) {
    rank_to_video[i] = static_cast<media::VideoId>(i);
  }
  util::Rng drift_rng(params.seed ^ 0xD81F7ULL);
  std::size_t submitted = 0;
  for (std::size_t day = 0; day < kDays; ++day) {
    if (day > 0) {
      const auto moves = static_cast<std::size_t>(
          kDrift * static_cast<double>(rank_to_video.size()));
      for (std::size_t m = 0; m < moves; ++m) {
        const std::size_t from = drift_rng.NextBounded(rank_to_video.size());
        const std::size_t to = drift_rng.NextBounded(rank_to_video.size());
        const media::VideoId moved = rank_to_video[from];
        rank_to_video.erase(rank_to_video.begin() + static_cast<long>(from));
        rank_to_video.insert(rank_to_video.begin() + static_cast<long>(to),
                             moved);
      }
    }
    workload::WorkloadParams wl;
    wl.users_per_neighborhood = params.users_per_neighborhood;
    wl.zipf_alpha = params.zipf_alpha;
    wl.cycle_length = params.cycle_length;
    wl.profile = params.start_profile;
    wl.seed = params.seed + 0x9E3779B9ULL * (day + 1);
    const util::Seconds day_start =
        util::Hours(24.0 * static_cast<double>(day));
    for (workload::Request r : workload::GenerateRequestsRanked(
             base.topology, base.catalog, wl, rank_to_video)) {
      r.start_time = r.start_time + day_start;
      if (service.Submit(r, r.start_time) !=
          svc::SubmitOutcome::kAccepted) {
        std::cerr << "intake refused a reservation on day " << day + 1
                  << '\n';
        return 1;
      }
      ++submitted;
    }
    if (!close()) return 1;
  }
  // Drain the deferred backlog; stop when it empties or stops shrinking.
  std::size_t backlog = service.DeferredCount();
  for (int extra = 0; backlog > 0 && extra < 16; ++extra) {
    if (!close()) return 1;
    const std::size_t now = service.DeferredCount();
    if (now >= backlog) break;
    backlog = now;
  }
  table.PrintPretty(std::cout);

  const core::Schedule schedule = service.CommittedSchedule();
  const std::vector<workload::Request> committed = service.CommittedRequests();
  const net::Router router(base.topology);
  const core::CostModel cm(base.topology, router, base.catalog);
  const sim::ValidationReport validation =
      sim::ValidateSchedule(schedule, committed, cm);
  if (!validation.ok()) {
    for (const sim::Violation& v : validation.violations) {
      std::cerr << sim::ToString(v.kind) << ": " << v.detail << '\n';
    }
    std::cerr << "the committed week failed validation\n";
    return 1;
  }

  const core::ScheduleReport report = core::BuildReport(schedule, committed, cm);
  const double lower_bound =
      core::UnavoidableNetworkLowerBound(committed, cm).total();
  std::cout << "\nweek: " << committed.size() << "/" << submitted
            << " reservations committed, cost $"
            << util::Table::Num(report.total_cost, 0) << ", cache-hit "
            << util::Table::Num(report.cache_hit_ratio * 100.0, 1)
            << "%, cost/lower-bound "
            << util::Table::Num(report.total_cost / lower_bound, 2) << "\n"
            << "(the bound prices only each title's first delivery out of "
               "the warehouse;\n repeat deliveries and cache residency "
               "over the week make up the rest.)\n";
  return 0;
}
