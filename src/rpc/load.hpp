// rpc::RunLoad — the concurrent load-generator side of the vor-rpc
// front-end.
//
// Streams a workload::TraceStream over N concurrent client connections
// against a serving vorctl instance, reproducing the trace replay's
// virtual-time discipline exactly:
//
//   * requests are partitioned into windows of `cycle_seconds` anchored
//     at the first (earliest) request's start time;
//   * each window is submitted round-robin across the N connections
//     (connection p takes indices p, p+N, ... — the same partition the
//     in-process replay's --producers threads use);
//   * after every non-empty window, one connection sends kCycleClose,
//     which is the wire twin of the replay's CloseCycle() call;
//   * after the last window the deferred backlog is drained with up to
//     16 extra closes, stopping early when it empties or stops
//     shrinking.
//
// Because the server canonically orders every drained batch at close,
// the committed schedule on the far side is byte-identical to an
// in-process file replay of the same trace at ANY connection count —
// that invariant is what tests/test_rpc.cpp locks down.
//
// Latency is recorded per submit into `metrics` (and the returned
// report): submit->ack is the synchronous RPC round trip; submit->commit
// is the time until the close that folded the request into the
// committed schedule returned.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "rpc/client.hpp"
#include "svc/reservation_service.hpp"
#include "util/result.hpp"
#include "workload/trace_stream.hpp"

namespace vor::obs {
class MetricsRegistry;
}  // namespace vor::obs

namespace vor::rpc {

struct LoadConfig {
  /// Failover endpoint list shared by every connection.
  std::vector<Endpoint> endpoints;
  /// Concurrent connections (each is one rpc::Client + worker thread).
  std::size_t connections = 4;
  /// Virtual-time window width; must be > 0.
  double cycle_seconds = 0.0;
  double connect_timeout_seconds = 5.0;
  double call_timeout_seconds = 30.0;
  /// Drain the server's deferred backlog after the last window.
  bool drain = true;
  /// Send kShutdown once the replay (and drain) finish.
  bool shutdown_after = false;
  /// Optional rpc.load.* sink.  May be null.
  obs::MetricsRegistry* metrics = nullptr;
};

/// What the generator observed, aggregated over all connections.
struct LoadReport {
  std::size_t submitted = 0;
  std::size_t accepted = 0;
  std::size_t deferred = 0;
  std::size_t rejected_invalid = 0;
  std::size_t rejected_backpressure = 0;
  /// Submits lost to transport errors (connection died mid-call).
  std::size_t transport_errors = 0;
  /// Every cycle close the generator drove, in order.
  std::vector<svc::CycleStats> closes;
  /// Per-submit latencies, seconds.
  std::vector<double> ack_seconds;
  std::vector<double> commit_seconds;
  double wall_seconds = 0.0;

  [[nodiscard]] std::size_t CyclesClosed() const { return closes.size(); }
};

/// Replays `trace` against the server(s).  Errors on connection failure
/// of every endpoint, a failed cycle close, or corrupt trace input.
[[nodiscard]] util::Result<LoadReport> RunLoad(workload::TraceStream& trace,
                                               const LoadConfig& config);

}  // namespace vor::rpc
