// Discrete-event playback simulator.
//
// Executes a service schedule over simulated time: streams start and end,
// caches fill while their anchor stream passes and drain behind their
// last reader, links carry concurrent streams.  The simulator produces
// the operational telemetry the schedule implies — per-IS occupancy
// peaks, per-link bandwidth peaks, stream concurrency — and serves as an
// independent cross-check of the analytic timelines (tests compare its
// sampled occupancy against storage::Load).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/cost_model.hpp"
#include "core/schedule.hpp"
#include "util/units.hpp"
#include "workload/request.hpp"

namespace vor::sim {

struct NodeTelemetry {
  net::NodeId node = net::kInvalidNode;
  /// Peak reserved bytes observed at any event instant.
  double peak_bytes = 0.0;
  /// Time-averaged reserved bytes over the active horizon.
  double mean_bytes = 0.0;
  /// Number of residencies hosted.
  std::size_t residencies = 0;
};

struct LinkTelemetry {
  net::NodeId a = net::kInvalidNode;
  net::NodeId b = net::kInvalidNode;
  /// Peak simultaneous streams.
  std::size_t peak_streams = 0;
  /// Peak bandwidth (bytes/sec).
  double peak_bandwidth = 0.0;
  /// Total bytes shipped over the cycle.
  double total_bytes = 0.0;
};

struct SimulationResult {
  std::vector<NodeTelemetry> nodes;
  std::vector<LinkTelemetry> links;
  /// Peak concurrent streams system-wide.
  std::size_t peak_concurrent_streams = 0;
  /// Events processed by the engine.
  std::size_t events_processed = 0;
  /// Simulated horizon (start of first event .. end of last playback).
  util::Interval horizon;

  /// Reserved bytes at node `n` at time `t` per the simulator's state
  /// trajectory (piecewise linear between events).
  [[nodiscard]] double OccupancyAt(net::NodeId n, util::Seconds t) const;

  /// Internal occupancy trajectories (per node, sorted event samples of
  /// (time, bytes)); exposed for tests and example visualisations.
  std::map<net::NodeId, std::vector<std::pair<double, double>>> occupancy_trace;
};

/// Runs the schedule through the event engine.
[[nodiscard]] SimulationResult SimulateSchedule(
    const core::Schedule& schedule,
    const std::vector<workload::Request>& requests,
    const core::CostModel& cost_model);

}  // namespace vor::sim
