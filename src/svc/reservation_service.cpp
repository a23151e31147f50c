#include "svc/reservation_service.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "sim/validator.hpp"
#include "workload/trace.hpp"

namespace vor::svc {

namespace {

/// Defensive cap on solve-validate-halve attempts per close.
constexpr std::size_t kMaxAdmissionRetries = 24;

/// Why an admitted candidate was pushed back, for the svc.admit.*
/// counter split.
enum class DeferCause : std::uint8_t {
  kFairness,
  kInfeasible,
};

const char* CounterName(DeferCause cause) {
  switch (cause) {
    case DeferCause::kFairness: return "svc.admit.deferred_fairness";
    case DeferCause::kInfeasible: return "svc.admit.deferred_infeasible";
  }
  return "svc.admit.deferred_other";
}

/// The admitted / pushed-back split of one canonical batch.
struct AdmissionSplit {
  std::vector<StampedRequest> admitted;
  std::vector<std::pair<StampedRequest, DeferCause>> pushed_back;
};

/// The per-user fairness cap: each user gets at most `user_cycle_cap`
/// slots per cycle, earliest arrivals first.  A pure function of the
/// canonical batch; the close does the bookkeeping.  Capacity is not
/// estimated here: the solve-validate-halve loop is the one capacity
/// gate.
AdmissionSplit ApplyFairnessCap(std::size_t user_cycle_cap,
                                std::vector<StampedRequest> batch) {
  AdmissionSplit split;
  split.admitted.reserve(batch.size());
  std::unordered_map<workload::UserId, std::size_t> per_user;
  for (StampedRequest& s : batch) {
    if (++per_user[s.request.user] > user_cycle_cap) {
      split.pushed_back.emplace_back(std::move(s), DeferCause::kFairness);
    } else {
      split.admitted.push_back(std::move(s));
    }
  }
  return split;
}

/// The shape a solve writes and the next close's merge walks, which the
/// validator does not check: files in strictly ascending title order.  (It
/// reports a delivery filed under another title as an invalid source.)
util::Status CheckSolvedShape(const core::Schedule& schedule) {
  const std::vector<core::FileSchedule>& files = schedule.files;
  for (std::size_t i = 1; i < files.size(); ++i) {
    if (files[i].video <= files[i - 1].video) {
      return util::InvalidArgument(
          "snapshot schedule files are out of ascending title order");
    }
  }
  return util::Status::Ok();
}

}  // namespace

bool DrainOrderLess(const StampedRequest& a, const StampedRequest& b) {
  if (a.arrival.value() != b.arrival.value()) {
    return a.arrival.value() < b.arrival.value();
  }
  if (workload::ReplayOrderLess(a.request, b.request)) return true;
  if (workload::ReplayOrderLess(b.request, a.request)) return false;
  return a.deferrals < b.deferrals;
}

ReservationService::ReservationService(const net::Topology& topology,
                                       const media::Catalog& catalog,
                                       ServiceConfig config)
    : topology_(&topology),
      catalog_(&catalog),
      config_(std::move(config)),
      // config_ precedes scheduler_ in declaration order, so reading it
      // here is safe; the service's metrics sink wins over any stale
      // pointer in the nested scheduler options.
      scheduler_(topology, catalog, [this] {
        core::SchedulerOptions options = config_.scheduler;
        options.metrics = config_.metrics;
        return options;
      }()) {
  if (config_.shards == 0) config_.shards = 1;
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ReservationService::~ReservationService() { Stop(); }

util::Status ReservationService::ValidateStamped(
    const StampedRequest& stamped) const {
  if (const util::Status s =
          workload::ValidateRequest(stamped.request, *topology_, *catalog_);
      !s.ok()) {
    return s;
  }
  if (!workload::IsValidTime(stamped.arrival)) {
    return util::InvalidArgument("negative or non-finite arrival time");
  }
  return util::Status::Ok();
}

SubmitOutcome ReservationService::Submit(const workload::Request& request,
                                         util::Seconds arrival) {
  const StampedRequest stamped{request, arrival, 0};
  if (!ValidateStamped(stamped).ok()) {
    obs::Add(config_.metrics, "svc.submit.rejected_invalid");
    return SubmitOutcome::kRejectedInvalid;
  }
  // Two-choice shard placement: the home shard first, then one
  // deterministic alternate, so a skewed user distribution overflows
  // into a sibling stripe instead of reporting spurious backpressure
  // while other shards sit empty.  Placement never affects the committed
  // schedule — the close drains every shard and sorts canonically.
  const std::size_t home = request.user % shards_.size();
  const std::size_t alternate = (home + 1) % shards_.size();
  for (const std::size_t index : {home, alternate}) {
    Shard& shard = *shards_[index];
    std::lock_guard lock(shard.mutex);
    if (shard.queue.size() < config_.shard_capacity) {
      shard.queue.push_back(stamped);
      shard.enqueued.push_back(IntakeNow());
      obs::Add(config_.metrics, "svc.submit.accepted");
      if (index != home) {
        obs::Add(config_.metrics, "svc.submit.accepted_second_choice");
      }
      return SubmitOutcome::kAccepted;
    }
    if (index == alternate) break;  // both stripes full; spill next
  }
  {
    std::lock_guard lock(spill_mutex_);
    if (spill_.size() < config_.deferred_capacity) {
      spill_.push_back(stamped);
      spill_enqueued_.push_back(IntakeNow());
      obs::Add(config_.metrics, "svc.submit.deferred");
      return SubmitOutcome::kDeferred;
    }
  }
  obs::Add(config_.metrics, "svc.submit.rejected_backpressure");
  return SubmitOutcome::kRejectedBackpressure;
}

std::vector<StampedRequest> ReservationService::DrainIntake() {
  // How long each request sat in intake before a close picked it up —
  // the queue-wait half of the submit->commit latency the RPC load
  // generator measures end to end.
  const double now = IntakeNow();
  std::vector<StampedRequest> drained;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    drained.insert(drained.end(), shard->queue.begin(), shard->queue.end());
    for (const double stamp : shard->enqueued) {
      obs::Observe(config_.metrics, "svc.submit.queue_wait", now - stamp);
    }
    shard->queue.clear();
    shard->enqueued.clear();
  }
  {
    std::lock_guard lock(spill_mutex_);
    drained.insert(drained.end(), spill_.begin(), spill_.end());
    for (const double stamp : spill_enqueued_) {
      obs::Observe(config_.metrics, "svc.submit.queue_wait", now - stamp);
    }
    spill_.clear();
    spill_enqueued_.clear();
  }
  return drained;
}

util::Result<CycleStats> ReservationService::CloseCycle() {
  const obs::Stopwatch close_watch;
  std::lock_guard cycle_lock(cycle_mutex_);

  CycleStats stats;
  stats.cycle = cycle_index_;
  stats.deferred_in = deferred_.size();

  // Drain, merge with the carried deferred set, and order canonically:
  // from here on nothing depends on which producer thread enqueued what.
  std::vector<StampedRequest> batch = DrainIntake();
  stats.drained = batch.size();
  obs::Append(config_.metrics, "svc.cycle.queue_depth",
              static_cast<double>(batch.size()));
  batch.insert(batch.end(), deferred_.begin(), deferred_.end());
  deferred_.clear();
  std::stable_sort(batch.begin(), batch.end(), DrainOrderLess);

  AdmissionSplit split =
      ApplyFairnessCap(config_.user_cycle_cap, std::move(batch));
  std::vector<StampedRequest>& admitted = split.admitted;
  std::vector<std::pair<StampedRequest, DeferCause>>& pushed_back =
      split.pushed_back;

  // Solve-validate-halve: commit only a schedule in which SORP resolved
  // every overflow and the independent validator agrees.  On failure the
  // newest arrivals are deferred and the cycle re-solved; the loop
  // terminates because the admitted set strictly shrinks (and the empty
  // set keeps the previous committed schedule, which was itself
  // validated when committed).
  // Each attempt appends its admitted batch to the committed log, which
  // is cut back to `first_new` unless the attempt commits, and solves the
  // committed state in place; a failed attempt reverts it.
  const obs::Stopwatch solve_watch;
  const std::size_t first_new = committed_.size();
  bool committed_new = false;
  while (!admitted.empty()) {
    if (stats.solve_attempts >= kMaxAdmissionRetries) {
      for (StampedRequest& s : admitted) {
        pushed_back.emplace_back(std::move(s), DeferCause::kInfeasible);
      }
      admitted.clear();
      break;
    }
    ++stats.solve_attempts;
    for (const StampedRequest& s : admitted) committed_.push_back(s.request);
    util::Result<core::SolveUndo> undo =
        core::IncrementalSolve(scheduler_, previous_, committed_, first_new);
    if (!undo.ok()) {
      // Solver errors are environment-level (validated requests should
      // never trigger them); a refused solve leaves previous_ untouched.
      // Re-defer the batch so nothing is lost and surface the error.
      committed_.resize(first_new);
      for (StampedRequest& s : admitted) {
        deferred_.push_back(std::move(s));
      }
      for (auto& [s, cause] : pushed_back) {
        (void)cause;
        deferred_.push_back(std::move(s));
      }
      std::stable_sort(deferred_.begin(), deferred_.end(), DrainOrderLess);
      obs::Add(config_.metrics, "svc.cycle.solve_errors");
      return undo.error();
    }
    bool valid = false;
    if (previous_.sorp.Resolved()) {
      // The committed state passed validation and the attempt wrote only
      // what its undo names, so checking that change is checking the
      // horizon (sim::ValidateChange's contract); asserts cross-check it.
      const obs::Stopwatch validate_watch;
      valid = sim::ValidateChange(previous_.schedule, committed_,
                                  scheduler_.cost_model(), *undo, first_new)
                  .ok();
      obs::Observe(config_.metrics, "svc.cycle.validate_seconds",
                   validate_watch.Seconds());
      assert(valid == sim::ValidateSchedule(previous_.schedule, committed_,
                                            scheduler_.cost_model())
                          .ok());
    }
    if (valid) {
      committed_new = true;
      break;
    }
    std::move(*undo).Revert(previous_);
    committed_.resize(first_new);
    // Defer the newer half (drain order puts the oldest first).
    const std::size_t keep = admitted.size() / 2;
    for (std::size_t i = admitted.size(); i > keep; --i) {
      pushed_back.emplace_back(std::move(admitted[i - 1]),
                               DeferCause::kInfeasible);
    }
    admitted.resize(keep);
  }
  stats.solve_seconds = solve_watch.Seconds();

  if (committed_new) {
    stats.admitted = admitted.size();
    obs::Add(config_.metrics, "svc.admit.committed", stats.admitted);
  }

  // Push-back bookkeeping: bump deferral counts, expire the hopeless,
  // respect the deferred-set bound.  Expiry (the request itself ran out
  // of max_deferrals chances) and deferred-set overflow (the backlog is
  // full — nothing wrong with the request) are distinct drop causes and
  // are accounted separately.
  for (auto& [s, cause] : pushed_back) {
    obs::Add(config_.metrics, CounterName(cause));
    if (s.deferrals >= config_.max_deferrals) {
      ++stats.rejected_expired;
      obs::Add(config_.metrics, "svc.admit.rejected_expired");
      continue;
    }
    if (deferred_.size() >= config_.deferred_capacity) {
      ++stats.rejected_deferred_full;
      obs::Add(config_.metrics, "svc.admit.rejected_deferred_full");
      continue;
    }
    ++s.deferrals;
    deferred_.push_back(std::move(s));
  }
  std::stable_sort(deferred_.begin(), deferred_.end(), DrainOrderLess);
  stats.deferred_out = deferred_.size();

  ++cycle_index_;
  stats.final_cost = previous_.final_cost.value();
  stats.committed_total = committed_.size();
  stats.close_seconds = close_watch.Seconds();
  obs::Add(config_.metrics, "svc.cycle.closed");
  obs::Observe(config_.metrics, "svc.cycle.close_seconds",
               stats.close_seconds);
  obs::Observe(config_.metrics, "svc.cycle.solve_seconds",
               stats.solve_seconds);
  history_.push_back(stats);
  return stats;
}

void ReservationService::Start() {
  std::lock_guard lock(clock_mutex_);
  if (clock_thread_.joinable()) return;
  clock_stop_ = false;
  clock_thread_ = std::thread([this] {
    std::unique_lock lock(clock_mutex_);
    const auto period = std::chrono::duration<double>(
        std::max(1e-3, config_.cycle_period_seconds));
    while (true) {
      if (clock_cv_.wait_for(lock, period, [this] { return clock_stop_; })) {
        break;
      }
      // The clock mutex must be released across CloseCycle: it takes
      // cycle_mutex_, and Stop() takes clock_mutex_ while a producer may
      // hold cycle_mutex_ — holding both here would close that deadlock
      // cycle.  wait_for needs the lock held again on re-entry, so this
      // window cannot be an RAII scope.
      lock.unlock();  // vorlint: ok(CONC-1)
      (void)CloseCycle();
      obs::Add(config_.metrics, "svc.cycle.clock_ticks");
      lock.lock();  // vorlint: ok(CONC-1)
    }
  });
}

void ReservationService::Stop() {
  std::thread joinee;
  {
    std::lock_guard lock(clock_mutex_);
    clock_stop_ = true;
    joinee = std::move(clock_thread_);
  }
  clock_cv_.notify_all();
  if (joinee.joinable()) joinee.join();
}

core::Schedule ReservationService::CommittedSchedule() const {
  std::lock_guard lock(cycle_mutex_);
  return previous_.schedule;
}

std::vector<workload::Request> ReservationService::CommittedRequests() const {
  std::lock_guard lock(cycle_mutex_);
  return committed_;
}

std::uint64_t ReservationService::cycle_index() const {
  std::lock_guard lock(cycle_mutex_);
  return cycle_index_;
}

std::size_t ReservationService::PendingCount() const {
  std::size_t n = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    n += shard->queue.size();
  }
  std::lock_guard lock(spill_mutex_);
  return n + spill_.size();
}

std::size_t ReservationService::DeferredCount() const {
  std::lock_guard lock(cycle_mutex_);
  return deferred_.size();
}

std::vector<CycleStats> ReservationService::History() const {
  std::lock_guard lock(cycle_mutex_);
  return history_;
}

std::size_t ReservationService::CommittedCount() const {
  std::lock_guard lock(cycle_mutex_);
  return committed_.size();
}

std::optional<CycleStats> ReservationService::LastCycle() const {
  std::lock_guard lock(cycle_mutex_);
  if (history_.empty()) return std::nullopt;
  return history_.back();
}

ServiceSnapshot ReservationService::Snapshot() const {
  std::lock_guard cycle_lock(cycle_mutex_);
  ServiceSnapshot snapshot;
  snapshot.cycle_index = cycle_index_;
  snapshot.committed = committed_;
  snapshot.schedule = previous_.schedule;
  snapshot.deferred = deferred_;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    snapshot.pending.insert(snapshot.pending.end(), shard->queue.begin(),
                            shard->queue.end());
  }
  {
    std::lock_guard lock(spill_mutex_);
    snapshot.pending.insert(snapshot.pending.end(), spill_.begin(),
                            spill_.end());
  }
  std::stable_sort(snapshot.pending.begin(), snapshot.pending.end(),
                   DrainOrderLess);
  return snapshot;
}

util::Status ReservationService::Restore(const ServiceSnapshot& snapshot) {
  for (std::size_t i = 0; i < snapshot.committed.size(); ++i) {
    if (const util::Status s = workload::ValidateRequest(
            snapshot.committed[i], *topology_, *catalog_, i);
        !s.ok()) {
      return s;
    }
  }
  for (const std::vector<StampedRequest>* stamped :
       {&snapshot.deferred, &snapshot.pending}) {
    for (const StampedRequest& s : *stamped) {
      if (const util::Status st = ValidateStamped(s); !st.ok()) {
        return st.error();
      }
    }
  }
  if (const util::Status s = CheckSolvedShape(snapshot.schedule); !s.ok()) {
    return s.error();
  }
  // The committed schedule must itself be a legal plan for the committed
  // requests — a snapshot from a different scenario (or a corrupted one)
  // fails here instead of poisoning future cycles.
  const sim::ValidationReport report = sim::ValidateSchedule(
      snapshot.schedule, snapshot.committed, scheduler_.cost_model());
  if (!report.ok()) {
    return util::InvalidArgument(
        "snapshot schedule fails validation: " +
        sim::ToString(report.violations.front().kind) + ": " +
        report.violations.front().detail);
  }

  std::lock_guard cycle_lock(cycle_mutex_);
  cycle_index_ = snapshot.cycle_index;
  committed_ = snapshot.committed;
  // A snapshot carries no resumable flags (the "vor-svc/1" shape stays
  // as it is), and nothing says which committed plans were SORP victims:
  // with every flag 0 the next close replays each touched title from its
  // first request.
  previous_ = core::SolveOutput{};
  previous_.schedule = snapshot.schedule;
  previous_.resumable.assign(snapshot.schedule.files.size(), 0);
  previous_.final_cost = scheduler_.cost_model().TotalCost(snapshot.schedule);
  deferred_ = snapshot.deferred;
  std::stable_sort(deferred_.begin(), deferred_.end(), DrainOrderLess);
  history_.clear();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->queue.clear();
    shard->enqueued.clear();
  }
  {
    std::lock_guard lock(spill_mutex_);
    spill_.clear();
    spill_enqueued_.clear();
  }
  // Pending intake re-enters through the shards so the next close drains
  // it exactly like live traffic.  Queue-wait stamps restart at the
  // restore (the original wait is not serialized).
  const double now = IntakeNow();
  for (const StampedRequest& s : snapshot.pending) {
    Shard& shard = *shards_[s.request.user % shards_.size()];
    std::lock_guard lock(shard.mutex);
    shard.queue.push_back(s);
    shard.enqueued.push_back(now);
  }
  obs::Add(config_.metrics, "svc.restores");
  return util::Status::Ok();
}

}  // namespace vor::svc
