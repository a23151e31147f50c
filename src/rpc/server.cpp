#include "rpc/server.hpp"

#include <chrono>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/reservation_service.hpp"

namespace vor::rpc {

namespace {

/// Per-recv read chunk.  Small on purpose: submit frames are tens of
/// bytes, and bounding the chunk bounds how far a pipelining client can
/// run ahead of the dispatch loop between responses.
constexpr std::size_t kRecvChunk = 4096;

}  // namespace

Server::Server(svc::ReservationService& service, ServerConfig config)
    : service_(&service), config_(std::move(config)) {
  if (config_.max_connections == 0) config_.max_connections = 1;
  if (config_.poll_seconds <= 0.0) config_.poll_seconds = 0.05;
}

Server::~Server() { Stop(); }

util::Status Server::Start() {
  if (started_.load(std::memory_order_acquire)) return util::Status::Ok();
  auto listener = Listener::Bind(
      config_.listen, static_cast<int>(config_.max_connections) + 8);
  if (!listener.ok()) return listener.error();
  listener_ = std::move(*listener);
  port_ = listener_.port();
  pool_ = std::make_unique<util::ThreadPool>(config_.max_connections);
  draining_.store(false, std::memory_order_release);
  started_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return util::Status::Ok();
}

void Server::Stop() {
  if (!started_.exchange(false, std::memory_order_acq_rel)) return;
  draining_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  // Connection handlers observe draining_ within one poll tick, finish
  // the frame they are processing, and return; Shutdown() then joins the
  // workers, so no handler outlives Stop().
  if (pool_) pool_->Shutdown();
  shutdown_cv_.notify_all();
}

bool Server::ShutdownRequested() const {
  std::lock_guard lock(shutdown_mutex_);
  return shutdown_requested_;
}

bool Server::WaitForShutdownRequest(double timeout_seconds) const {
  std::unique_lock lock(shutdown_mutex_);
  shutdown_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds),
      [this] { return shutdown_requested_; });
  return shutdown_requested_;
}

void Server::AcceptLoop() {
  while (!draining_.load(std::memory_order_acquire)) {
    auto accepted = listener_.AcceptOnce(config_.poll_seconds);
    if (!accepted.ok()) {
      obs::Add(config_.metrics, "rpc.server.accept_errors", 1);
      continue;
    }
    if (!accepted->valid()) continue;  // poll tick: re-check draining_
    if (active_.load(std::memory_order_acquire) >= config_.max_connections) {
      obs::Add(config_.metrics, "rpc.server.rejected_busy", 1);
      // Best-effort busy frame; the peer may already be gone.
      (void)SendFrame(*accepted, MsgType::kError, 0,
                      EncodeTextBody(kErrBusy, "connection limit reached"));
      continue;
    }
    obs::Add(config_.metrics, "rpc.server.connections", 1);
    active_.fetch_add(1, std::memory_order_acq_rel);
    try {
      (void)pool_->Submit(
          [this, socket = std::move(*accepted)]() mutable {
            // The slot must be returned even if the handler throws
            // (bad_alloc building a reply, say); a leaked decrement here
            // would shrink max_connections permanently and eventually
            // busy-reject every client.
            try {
              ConnectionLoop(std::move(socket));
            } catch (const std::exception&) {
              obs::Add(config_.metrics, "rpc.server.handler_errors", 1);
            }
            active_.fetch_sub(1, std::memory_order_acq_rel);
          });
    } catch (const std::exception&) {
      // Pool already shutting down: the accept loop is about to exit too.
      active_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
}

void Server::ConnectionLoop(Socket socket) {
  std::string buffer;
  std::vector<char> chunk(kRecvChunk);
  double idle_seconds = 0.0;
  while (!draining_.load(std::memory_order_acquire)) {
    // Drain every complete frame already buffered before reading more:
    // frames are answered strictly in arrival order per connection.
    bool close_connection = false;
    while (true) {
      const DecodeResult decoded = DecodeFrame(buffer.data(), buffer.size());
      if (decoded.verdict == DecodeVerdict::kMalformed) {
        obs::Add(config_.metrics, "rpc.server.malformed_frames", 1);
        (void)SendFrame(socket, MsgType::kError, 0,
                        EncodeTextBody(kErrMalformed, decoded.error));
        return;
      }
      if (decoded.verdict == DecodeVerdict::kNeedMoreData) break;
      idle_seconds = 0.0;
      buffer.erase(0, decoded.consumed);
      obs::Add(config_.metrics, "rpc.server.frames", 1);
      if (!HandleFrame(socket, decoded.frame)) {
        close_connection = true;
        break;
      }
    }
    if (close_connection) return;

    const auto received =
        socket.RecvSome(chunk.data(), chunk.size(), config_.poll_seconds);
    if (!received.ok()) return;  // reset by peer
    if (received->eof) return;   // orderly close
    if (received->timed_out) {
      idle_seconds += config_.poll_seconds;
      if (idle_seconds >= config_.read_timeout_seconds) {
        obs::Add(config_.metrics, "rpc.server.read_timeouts", 1);
        (void)SendFrame(socket, MsgType::kError, 0,
                        EncodeTextBody(kErrMalformed,
                                       "read timeout mid-stream"));
        return;
      }
      continue;
    }
    buffer.append(chunk.data(), received->n);
  }
  // Drain: tell a still-connected peer the server is going away.
  (void)SendFrame(socket, MsgType::kError, 0,
                  EncodeTextBody(kErrDraining, "server draining"));
}

bool Server::HandleFrame(Socket& socket, const Frame& frame) {
  const obs::Stopwatch handle_timer;
  switch (frame.type) {
    case MsgType::kSubmit: {
      auto submit = DecodeSubmitBody(frame.body);
      if (!submit.ok()) {
        obs::Add(config_.metrics, "rpc.server.bad_bodies", 1);
        return SendFrame(socket, MsgType::kError, frame.seq,
                         EncodeTextBody(kErrMalformed,
                                        submit.error().message))
            .ok();
      }
      const svc::SubmitOutcome outcome =
          service_->Submit(submit->first, submit->second);
      obs::Add(config_.metrics, "rpc.server.submits", 1);
      obs::Observe(config_.metrics, "rpc.server.submit_seconds",
                   handle_timer.Seconds());
      return SendFrame(socket, MsgType::kSubmitAck, frame.seq,
                       EncodeSubmitAckBody(outcome))
          .ok();
    }
    case MsgType::kStatus: {
      StatusInfo info;
      info.cycle_index = service_->cycle_index();
      info.pending = service_->PendingCount();
      info.deferred = service_->DeferredCount();
      info.committed_total = service_->CommittedCount();
      return SendFrame(socket, MsgType::kStatusInfo, frame.seq,
                       EncodeStatusBody(info))
          .ok();
    }
    case MsgType::kCycleClose: {
      auto stats = service_->CloseCycle();
      obs::Add(config_.metrics, "rpc.server.cycle_closes", 1);
      if (!stats.ok()) {
        return SendFrame(socket, MsgType::kError, frame.seq,
                         EncodeTextBody(kErrInternal,
                                        stats.error().message))
            .ok();
      }
      return SendFrame(socket, MsgType::kCycleStats, frame.seq,
                       EncodeCycleStatsBody(&*stats))
          .ok();
    }
    case MsgType::kCycleQuery: {
      const std::optional<svc::CycleStats> last = service_->LastCycle();
      return SendFrame(socket, MsgType::kCycleStats, frame.seq,
                       EncodeCycleStatsBody(last ? &*last : nullptr))
          .ok();
    }
    case MsgType::kSnapshotTrigger: {
      if (!config_.snapshot_writer) {
        return SendFrame(socket, MsgType::kSnapshotAck, frame.seq,
                         EncodeTextBody(kErrUnsupported,
                                        "no snapshot sink configured"))
            .ok();
      }
      auto written = config_.snapshot_writer();
      obs::Add(config_.metrics, "rpc.server.snapshots", 1);
      if (!written.ok()) {
        return SendFrame(socket, MsgType::kSnapshotAck, frame.seq,
                         EncodeTextBody(kErrInternal,
                                        written.error().message))
            .ok();
      }
      return SendFrame(socket, MsgType::kSnapshotAck, frame.seq,
                       EncodeTextBody(0, *written))
          .ok();
    }
    case MsgType::kShutdown: {
      // Ack first so the client sees the handshake complete, then flag:
      // the controlling thread (vorctl serve) reacts by calling Stop().
      const bool sent = SendFrame(socket, MsgType::kShutdownAck, frame.seq,
                                  std::string())
                            .ok();
      {
        std::lock_guard lock(shutdown_mutex_);
        shutdown_requested_ = true;
      }
      shutdown_cv_.notify_all();
      (void)sent;
      return false;  // connection closes; the server is on its way down
    }
    case MsgType::kSubmitAck:
    case MsgType::kStatusInfo:
    case MsgType::kCycleStats:
    case MsgType::kSnapshotAck:
    case MsgType::kShutdownAck:
    case MsgType::kError:
      // Response-typed frames are nonsense to send at a server; answer
      // with an error but keep the (well-framed) connection alive.
      obs::Add(config_.metrics, "rpc.server.unsupported_frames", 1);
      return SendFrame(
                 socket, MsgType::kError, frame.seq,
                 EncodeTextBody(kErrUnsupported,
                                std::string("unexpected message type ") +
                                    ToString(frame.type)))
          .ok();
  }
  return false;
}

util::Status Server::SendFrame(Socket& socket, MsgType type,
                               std::uint64_t seq, const std::string& body) {
  Frame frame;
  frame.type = type;
  frame.seq = seq;
  frame.body = body;
  const std::string wire = EncodeFrame(frame);
  return socket.SendAll(wire.data(), wire.size());
}

}  // namespace vor::rpc
