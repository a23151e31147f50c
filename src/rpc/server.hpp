// rpc::Server — the vor-rpc/1 TCP front door of a ReservationService.
//
// Architecture (compact blocking-socket server over the shared thread
// pool):
//
//   * A listener thread accepts connections with a poll-bounded
//     AcceptOnce, so shutdown is observed within one poll tick without
//     signals or fd tricks.
//   * Each accepted connection becomes one task on a util::ThreadPool
//     sized to the connection cap: the task owns the socket and runs a
//     read-decode-dispatch-reply loop until EOF, idle timeout, a
//     malformed frame, or server drain.  A connection past the cap is
//     answered with a busy error frame and closed — the cap bounds both
//     pool occupancy and in-flight frames.
//   * Frames are handled strictly in order per connection and each gets
//     exactly one response, so a pipelining client sees acks in submit
//     order and intake backpressure surfaces as the service's own
//     deferred/rejected verdicts, never as silent drops.
//   * Malformed input (bad magic, CRC mismatch, oversized length,
//     unknown type/version, bad body) is answered with a kError frame
//     and — for unrecoverable framing damage — a closed connection; the
//     server itself never crashes or wedges.
//   * Stop() drains gracefully: stop accepting, let every connection
//     finish the frame it is processing, join the pool.  Determinism is
//     inherited from the service: any interleaving of submit frames
//     commits the same schedule because cycle closes canonically order
//     the batch.
//
// The service must outlive the server.  Start()/Stop() are not
// thread-safe against each other; call them from one controlling thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "rpc/protocol.hpp"
#include "rpc/socket.hpp"
#include "util/lock_order.hpp"
#include "util/result.hpp"
#include "util/thread_pool.hpp"

namespace vor::obs {
class MetricsRegistry;
}  // namespace vor::obs

namespace vor::rpc {

struct ServerConfig {
  /// Listen address; port 0 picks an ephemeral port (see Server::port()).
  Endpoint listen{"127.0.0.1", 0};
  /// Connection cap == worker pool size; a connection beyond it is
  /// rejected with kErrBusy.
  std::size_t max_connections = 16;
  /// Idle read deadline per connection: with no complete frame for this
  /// long the server sends a timeout error frame and closes.
  double read_timeout_seconds = 30.0;
  /// Poll granularity for accept/recv waits; bounds drain latency.
  double poll_seconds = 0.2;
  /// Optional rpc.server.* counters/timers sink.  May be null.
  obs::MetricsRegistry* metrics = nullptr;
  /// Invoked on kSnapshotTrigger; returns the path written.  Null means
  /// the server answers kErrUnsupported.
  std::function<util::Result<std::string>()> snapshot_writer;
};

class Server {
 public:
  Server(svc::ReservationService& service, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener and starts the accept thread.  Error when the
  /// address is unusable; idempotent once started.
  [[nodiscard]] util::Status Start();

  /// Graceful drain: stop accepting, finish in-flight frames, join all
  /// connection handlers and the listener.  Idempotent; the destructor
  /// calls it.
  void Stop();

  /// Resolved listen port (after Start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// True once a client sent kShutdown.
  [[nodiscard]] bool ShutdownRequested() const;

  /// Blocks up to `timeout_seconds` for a client shutdown request;
  /// returns ShutdownRequested().
  [[nodiscard]] bool WaitForShutdownRequest(double timeout_seconds) const;

 private:
  void AcceptLoop();
  void ConnectionLoop(Socket socket);
  /// Dispatches one decoded frame; returns false when the connection
  /// must close (shutdown handshake or unrecoverable request).
  [[nodiscard]] bool HandleFrame(Socket& socket, const Frame& frame);
  [[nodiscard]] util::Status SendFrame(Socket& socket, MsgType type,
                                       std::uint64_t seq,
                                       const std::string& body);

  svc::ReservationService* service_;
  ServerConfig config_;
  Listener listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  std::atomic<std::size_t> active_{0};
  std::unique_ptr<util::ThreadPool> pool_;
  std::thread accept_thread_;

  mutable util::RankedMutex shutdown_mutex_{util::LockRank::kRpcShutdown,
                                            "rpc.shutdown"};
  mutable std::condition_variable_any shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace vor::rpc
