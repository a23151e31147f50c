#include "rpc/load.hpp"

#include <cmath>
#include <memory>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"

namespace vor::rpc {

namespace {

/// Shared per-window tallies; each worker writes its own slot, the
/// window driver folds them after join (no locking on the submit path).
struct WorkerTally {
  std::size_t accepted = 0;
  std::size_t deferred = 0;
  std::size_t rejected_invalid = 0;
  std::size_t rejected_backpressure = 0;
  std::size_t transport_errors = 0;
  /// (ack latency, submit-completion stamp) per successful submit.
  std::vector<std::pair<double, double>> submits;
};

}  // namespace

util::Result<LoadReport> RunLoad(workload::TraceStream& trace,
                                 const LoadConfig& config) {
  if (config.cycle_seconds <= 0.0) {
    return util::InvalidArgument("load needs cycle_seconds > 0");
  }
  if (config.connections == 0) {
    return util::InvalidArgument("load needs at least one connection");
  }
  if (config.endpoints.empty()) {
    return util::InvalidArgument("load needs at least one endpoint");
  }

  ClientConfig client_config;
  client_config.endpoints = config.endpoints;
  client_config.connect_timeout_seconds = config.connect_timeout_seconds;
  client_config.call_timeout_seconds = config.call_timeout_seconds;

  // One persistent client per connection for the whole replay; workers
  // are re-spawned per window but always reuse their own connection, so
  // per-connection frame order is stable across the run.
  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(config.connections);
  for (std::size_t i = 0; i < config.connections; ++i) {
    clients.push_back(std::make_unique<Client>(client_config));
    if (auto status = clients.back()->Connect(); !status.ok()) {
      return status.error();
    }
  }

  const obs::Stopwatch run_clock;
  LoadReport report;
  std::vector<workload::Request> window;

  // Submits the buffered window round-robin over the connections, then
  // closes the cycle over connection 0 — the wire twin of the in-process
  // replay's producers + CloseCycle().
  auto close_window = [&]() -> util::Status {
    if (window.empty()) return util::Status::Ok();
    std::vector<WorkerTally> tallies(config.connections);
    std::vector<std::thread> workers;
    workers.reserve(config.connections);
    for (std::size_t p = 0; p < config.connections; ++p) {
      workers.emplace_back([&, p] {
        WorkerTally& tally = tallies[p];
        for (std::size_t i = p; i < window.size(); i += config.connections) {
          const workload::Request& r = window[i];
          const double t_submit = run_clock.Seconds();
          const auto outcome = clients[p]->Submit(r, r.start_time);
          const double t_ack = run_clock.Seconds();
          if (!outcome.ok()) {
            ++tally.transport_errors;
            continue;
          }
          tally.submits.emplace_back(t_ack - t_submit, t_ack);
          switch (*outcome) {
            case svc::SubmitOutcome::kAccepted: ++tally.accepted; break;
            case svc::SubmitOutcome::kDeferred: ++tally.deferred; break;
            case svc::SubmitOutcome::kRejectedInvalid:
              ++tally.rejected_invalid;
              break;
            case svc::SubmitOutcome::kRejectedBackpressure:
              ++tally.rejected_backpressure;
              break;
          }
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    const std::size_t window_size = window.size();
    report.submitted += window_size;
    obs::Add(config.metrics, "rpc.load.submits", window_size);
    window.clear();

    auto stats = clients[0]->CloseCycle();
    if (!stats.ok()) return stats.error();
    const double t_close = run_clock.Seconds();
    report.closes.push_back(*stats);
    obs::Add(config.metrics, "rpc.load.cycles", 1);
    obs::Observe(config.metrics, "rpc.load.close_seconds",
                 stats->close_seconds);

    for (const WorkerTally& tally : tallies) {
      report.accepted += tally.accepted;
      report.deferred += tally.deferred;
      report.rejected_invalid += tally.rejected_invalid;
      report.rejected_backpressure += tally.rejected_backpressure;
      report.transport_errors += tally.transport_errors;
      for (const auto& [ack, stamp] : tally.submits) {
        report.ack_seconds.push_back(ack);
        // Commit latency: the request is part of the committed schedule
        // (or the deferred backlog) once this window's close returns.
        report.commit_seconds.push_back(t_close - stamp);
        obs::Observe(config.metrics, "rpc.load.ack_seconds", ack);
        obs::Observe(config.metrics, "rpc.load.commit_seconds",
                     t_close - stamp);
      }
    }
    return util::Status::Ok();
  };

  // Virtual-time windowing, identical to the in-process trace replay:
  // anchored at the earliest request, window floor((start - t0) / cycle),
  // one close per non-empty window.
  double t0 = 0.0;
  std::size_t total = 0;
  double w = 0.0;
  workload::Request r;
  while (true) {
    auto more = trace.Next(r);
    if (!more.ok()) return more.error();
    if (!*more) break;
    if (total == 0) t0 = r.start_time.value();
    if (const double next =
            std::floor((r.start_time.value() - t0) / config.cycle_seconds);
        next != w) {
      if (auto status = close_window(); !status.ok()) return status.error();
      w = next;
    }
    window.push_back(r);
    ++total;
  }
  if (total == 0) return util::InvalidArgument("load: empty trace");
  if (auto status = close_window(); !status.ok()) return status.error();

  if (config.drain) {
    // Mirror the replay's backlog drain: extra closes until the deferred
    // set empties or stops shrinking, capped at 16.
    auto status_info = clients[0]->Status();
    if (!status_info.ok()) return status_info.error();
    std::uint64_t backlog = status_info->deferred;
    for (int extra = 0; backlog > 0 && extra < 16; ++extra) {
      auto stats = clients[0]->CloseCycle();
      if (!stats.ok()) return stats.error();
      report.closes.push_back(*stats);
      obs::Add(config.metrics, "rpc.load.cycles", 1);
      auto now = clients[0]->Status();
      if (!now.ok()) return now.error();
      if (now->deferred >= backlog) break;
      backlog = now->deferred;
    }
  }

  if (config.shutdown_after) {
    if (auto status = clients[0]->Shutdown(); !status.ok()) {
      return status.error();
    }
  }

  report.wall_seconds = run_clock.Seconds();
  obs::Observe(config.metrics, "rpc.load.wall_seconds", report.wall_seconds);
  return report;
}

}  // namespace vor::rpc
