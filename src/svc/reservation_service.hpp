// Online reservation front door for the two-phase scheduler.
//
// The paper's premise (Sec. 1.1) is that Video-On-Reservation providers
// accept requests *ahead of time* and then plan a whole cycle at once.
// Everything below src/svc is batch: build a request vector, call
// VorScheduler::Solve, done.  ReservationService is the missing online
// tier that turns that batch solver into a service:
//
//   * Intake — sharded, lock-striped bounded queues accept requests
//     concurrently from many producer threads.  Submit() is cheap (one
//     shard mutex) and reports backpressure honestly: accepted into the
//     open cycle, deferred into the bounded spill queue, or rejected
//     (invalid request / both queues full).
//   * Cycle clock — CloseCycle() drains the shards, canonically orders
//     the batch (stable sort by arrival, then the workload replay order:
//     start time, user, video — so the committed schedule is
//     byte-identical at any producer/thread count), and replans the
//     committed state in place via core::IncrementalSolve, reverting
//     an attempt it does not commit.  Start(period) runs a background
//     thread that closes cycles on a wall-clock period for live
//     deployments; trace replays close cycles explicitly at virtual-time
//     epochs instead.
//   * Admission control — one pre-filter, the per-user fairness cap,
//     then the one capacity gate: a cycle is committed only when SORP
//     resolved every overflow AND sim::ValidateSchedule passes.
//     Otherwise the latest arrivals are deferred (halving) and the cycle
//     re-solved, so the committed schedule can never overflow an
//     intermediate storage.  Capacity is phase 2's job (SORP, Sec. 4):
//     a batch that piles onto one IS reaches SORP whole.
//   * Snapshot/restore — the full service state (committed requests +
//     schedule, deferred set, open intake) serializes through io/serialize
//     as a versioned "vor-svc/1" document (src/svc/snapshot.hpp), so a
//     restarted process resumes mid-horizon with identical bytes.
//
// Thread-safety: Submit may be called from any number of threads.
// CloseCycle, Snapshot, Restore, and the accessors serialize on an
// internal cycle mutex; the background clock is just another CloseCycle
// caller.  Lock order is cycle mutex -> shard/spill mutexes, enforced at
// runtime by util::RankedMutex in VOR_LOCK_ORDER_CHECK builds (see
// util/lock_order.hpp for the repo-wide rank table).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/scheduler.hpp"
#include "media/catalog.hpp"
#include "net/topology.hpp"
#include "util/lock_order.hpp"
#include "util/result.hpp"
#include "util/units.hpp"
#include "workload/request.hpp"

namespace vor::obs {
class MetricsRegistry;
}  // namespace vor::obs

namespace vor::svc {

/// A reservation as the intake tier carries it: the request plus the
/// filing (arrival) time the producer observed, and how many cycle
/// closes have pushed it back.  Arrival is part of the canonical drain
/// order, so it must come from the request stream itself (a trace
/// column, an ingest timestamp), never from intake-side clocks — that is
/// what makes multi-producer drains reproducible.
struct StampedRequest {
  workload::Request request;
  util::Seconds arrival{0.0};
  std::uint32_t deferrals = 0;
};

/// Canonical drain order: (arrival, start, user, video, neighborhood,
/// deferrals).  Total up to exact duplicates, which are interchangeable.
[[nodiscard]] bool DrainOrderLess(const StampedRequest& a,
                                  const StampedRequest& b);

enum class SubmitOutcome : std::uint8_t {
  /// Queued into the open cycle.
  kAccepted,
  /// Shard full; parked in the bounded spill queue, drained next close.
  kDeferred,
  /// Unknown video / non-storage neighborhood / a start or arrival time
  /// that is negative or not finite.
  kRejectedInvalid,
  /// Shard and spill both full — the caller should slow down.
  kRejectedBackpressure,
};

struct ServiceConfig {
  /// Intake lock stripes.  Requests hash to a shard by user id.
  std::size_t shards = 8;
  /// Bounded open-cycle intake per shard.
  std::size_t shard_capacity = 4096;
  /// Bounded spill queue shared by all shards (Submit backpressure tier)
  /// and cap on the carried deferred set.
  std::size_t deferred_capacity = 16384;
  /// Per-user fairness cap: at most this many requests committed per
  /// user per cycle; the excess (in drain order) is deferred.
  std::size_t user_cycle_cap = 64;
  /// A request deferred more than this many times is dropped (rejected).
  std::size_t max_deferrals = 8;
  /// Background clock period for Start() (wall-clock seconds).
  double cycle_period_seconds = 1.0;
  /// Solver configuration (heat metric, SORP engine, worker threads...).
  /// `scheduler.metrics` is overridden by `metrics` below.
  core::SchedulerOptions scheduler;
  /// Optional metrics sink: svc.submit.* / svc.admit.* counters, cycle
  /// close/solve timers, queue-depth series.  Also threaded into the
  /// solver.  May be null.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-close statistics, also appended to History().
struct CycleStats {
  std::uint64_t cycle = 0;
  /// Requests drained from shards + spill this close.
  std::size_t drained = 0;
  /// Deferred requests carried into this close from earlier cycles.
  std::size_t deferred_in = 0;
  /// Newly committed this close.
  std::size_t admitted = 0;
  /// Pushed back to the next close, by the fairness cap or by the
  /// solve-validate-halve loop.
  std::size_t deferred_out = 0;
  /// Dropped: deferred more than max_deferrals times (genuine expiry).
  std::size_t rejected_expired = 0;
  /// Dropped: the bounded deferred set was full when pushed back —
  /// distinct from expiry so backlog overflow is visible as such.
  std::size_t rejected_deferred_full = 0;
  /// Solve attempts this close (>1 means the halving loop engaged).
  std::size_t solve_attempts = 0;
  double close_seconds = 0.0;
  double solve_seconds = 0.0;
  /// Cost of the committed schedule after this close.
  double final_cost = 0.0;
  /// Committed requests over the whole horizon after this close.
  std::size_t committed_total = 0;
};

/// Serializable service state; see src/svc/snapshot.hpp for the
/// "vor-svc/1" document mapping.
struct ServiceSnapshot {
  std::uint64_t cycle_index = 0;
  std::vector<workload::Request> committed;
  core::Schedule schedule;
  std::vector<StampedRequest> deferred;
  /// Open-cycle intake (shards + spill) at snapshot time, drain-ordered.
  std::vector<StampedRequest> pending;
};

class ReservationService {
 public:
  /// The topology and catalog must outlive the service and Validate().
  ReservationService(const net::Topology& topology,
                     const media::Catalog& catalog, ServiceConfig config = {});
  ~ReservationService();

  ReservationService(const ReservationService&) = delete;
  ReservationService& operator=(const ReservationService&) = delete;

  /// Thread-safe intake.  `arrival` is the filing time from the request
  /// stream (see StampedRequest); requests are validated here so cycle
  /// closes never see garbage.
  [[nodiscard]] SubmitOutcome Submit(const workload::Request& request,
                                     util::Seconds arrival);

  /// Closes the open cycle: drain, order, admit, re-solve, commit.
  /// Returns the close's statistics.  Errors only on solver failure
  /// (the drained batch is then re-deferred, not lost).
  [[nodiscard]] util::Result<CycleStats> CloseCycle();

  /// Starts/stops the background cycle clock (period from config).
  /// Start is idempotent; Stop joins the thread.  The destructor stops.
  void Start();
  void Stop();

  // ---- state (copies taken under the cycle mutex) ----------------------
  [[nodiscard]] core::Schedule CommittedSchedule() const;
  [[nodiscard]] std::vector<workload::Request> CommittedRequests() const;
  [[nodiscard]] std::uint64_t cycle_index() const;
  [[nodiscard]] std::size_t PendingCount() const;
  [[nodiscard]] std::size_t DeferredCount() const;
  [[nodiscard]] std::vector<CycleStats> History() const;

  /// Consistent copy of the full state (committed + deferred + open
  /// intake).  Does not mutate the service.
  [[nodiscard]] ServiceSnapshot Snapshot() const;

  /// Replaces the service state with a snapshot's (typically straight
  /// after construction).  Validates every request against the
  /// environment, refuses a committed schedule not in the shape a solve
  /// writes (files in strictly ascending title order, each delivery under
  /// its own title) and re-validates it; on error the service is left
  /// unchanged.  No restored plan is resumable.
  [[nodiscard]] util::Status Restore(const ServiceSnapshot& snapshot);

 private:
  struct Shard {
    util::RankedMutex mutex{util::LockRank::kSvcIntakeShard, "svc.shard"};
    std::vector<StampedRequest> queue;
    /// Wall-clock enqueue stamp (seconds since intake_epoch_) parallel to
    /// `queue` — feeds the svc.submit.queue_wait timer at drain.  Kept
    /// beside the queue, not inside StampedRequest, so the serialized
    /// snapshot shape and the canonical drain order never see it.
    std::vector<double> enqueued;
  };
  /// Drains shards + spill (cycle mutex must be held).
  [[nodiscard]] std::vector<StampedRequest> DrainIntake();
  [[nodiscard]] util::Status ValidateRequest(
      const workload::Request& request) const;
  /// ValidateRequest plus a finite, non-negative arrival.
  [[nodiscard]] util::Status ValidateStamped(
      const StampedRequest& stamped) const;
  /// Seconds since intake_epoch_ (monotonic), for queue-wait stamps.
  [[nodiscard]] double IntakeNow() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         intake_epoch_)
        .count();
  }

  const net::Topology* topology_;
  const media::Catalog* catalog_;
  ServiceConfig config_;
  core::VorScheduler scheduler_;

  /// Lock-striped intake.  unique_ptr keeps Shard addresses stable.
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable util::RankedMutex spill_mutex_{util::LockRank::kSvcSpill,
                                         "svc.spill"};
  std::vector<StampedRequest> spill_;
  /// Enqueue stamps parallel to spill_ (see Shard::enqueued).
  std::vector<double> spill_enqueued_;
  /// Monotonic origin for the queue-wait stamps above.
  std::chrono::steady_clock::time_point intake_epoch_ =
      std::chrono::steady_clock::now();

  /// Guards everything below (the cycle state).
  mutable util::RankedMutex cycle_mutex_{util::LockRank::kSvcCycle,
                                         "svc.cycle"};
  std::uint64_t cycle_index_ = 0;
  std::vector<workload::Request> committed_;
  /// The committed solution over committed_; each close solves it in
  /// place and reverts the attempts it does not commit.
  core::SolveOutput previous_;
  std::vector<StampedRequest> deferred_;
  std::vector<CycleStats> history_;

  // ---- background clock ------------------------------------------------
  util::RankedMutex clock_mutex_{util::LockRank::kSvcClock, "svc.clock"};
  std::condition_variable_any clock_cv_;
  bool clock_stop_ = false;
  std::thread clock_thread_;
};

}  // namespace vor::svc
