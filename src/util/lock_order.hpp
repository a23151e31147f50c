// Runtime lock-order witness: ranked mutexes + a per-thread held stack.
//
// vorlint's CONC-4 pass proves the *static* lock graph acyclic; this is
// the runtime half of the same contract.  Every long-lived mutex in the
// concurrent tiers (svc, rpc, obs) carries a LockRank, and a checked
// build (-DVOR_LOCK_ORDER_CHECK=ON, wired into the tsan preset) verifies
// on every acquisition that the new rank is strictly greater than every
// rank already held by the thread.  A violation — acquiring downward or
// sideways in the order, or re-acquiring a held mutex — dumps the full
// held-stack witness and aborts before the thread can block, so tsan
// soaks fail fast on ordering bugs instead of timing out on a deadlock.
//
// In normal builds RankedMutex is BasicRankedMutex<false>: lock/unlock
// compile down to the underlying std::mutex calls and the registry is
// never touched (zero cost beyond two tag members per mutex).
//
// The rank table is the repo-wide locking discipline (see DESIGN.md
// "Locking discipline" and docs/vorlint.md): ranks only ever increase
// along any call path, and equal ranks never nest — including on
// *different* instances, which is why obs instruments (many Timer/Series
// objects, never nested with each other) share one rank.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace vor::util {

/// Repo-wide mutex ranks, ascending in permitted acquisition order.
/// Gaps of 10 leave room for future tiers without renumbering.
enum class LockRank : std::uint16_t {
  /// svc background clock (ReservationService::clock_mutex_).  Held only
  /// around the stop flag; explicitly released before CloseCycle, so
  /// nothing below may ever acquire it.
  kSvcClock = 10,
  /// svc cycle state (ReservationService::cycle_mutex_).  The close path
  /// acquires shard/spill/obs locks underneath it.
  kSvcCycle = 20,
  /// svc intake stripes (ReservationService::Shard::mutex).  Shards never
  /// nest with each other: Submit and the drain loops hold one at a time.
  kSvcIntakeShard = 30,
  /// svc spill queue (ReservationService::spill_mutex_).
  kSvcSpill = 40,
  /// rpc server shutdown latch (rpc::Server::shutdown_mutex_).
  kRpcShutdown = 50,
  /// obs::MetricsRegistry map lock; leaf-ward of every product tier.
  kObsRegistry = 60,
  /// obs instrument locks (Timer, Series).  Instruments never nest with
  /// each other, so one rank covers them all.
  kObsInstrument = 70,
};

/// One entry of a thread's held stack (acquisition order, oldest first).
struct HeldLock {
  const void* mutex = nullptr;
  std::uint16_t rank = 0;
  const char* name = "";
};

/// What the registry saw when an acquisition broke the partial order.
struct LockOrderViolation {
  enum class Kind : std::uint8_t {
    /// New rank <= some already-held rank (downward/sideways acquire).
    kRankOrder,
    /// The exact mutex is already on this thread's held stack.
    kRecursive,
  };
  Kind kind = Kind::kRankOrder;
  HeldLock attempted;
  /// Held stack at the attempt, acquisition order (oldest first).
  std::vector<HeldLock> held;
};

/// Per-thread held-lock bookkeeping behind BasicRankedMutex<true>.
/// All state is thread_local; the only global is the violation handler.
class LockOrderRegistry {
 public:
  using Handler = void (*)(const LockOrderViolation& violation);

  /// Installs a violation handler and returns the previous one.  Passing
  /// nullptr restores the default handler (dump witness to stderr and
  /// abort).  Tests install a capturing handler; if a non-default handler
  /// returns, the acquisition proceeds (the stack stays balanced).
  static Handler SetViolationHandler(Handler handler);

  /// Records an acquisition attempt: checks the rank order *before* the
  /// caller blocks on the underlying mutex, reports through the handler
  /// on violation, then pushes the entry either way.
  static void OnAcquire(const void* mutex, std::uint16_t rank,
                        const char* name);

  /// Removes the entry for `mutex` from this thread's stack.  Out-of-LIFO
  /// release is legal (guards may outlive each other in any order).
  static void OnRelease(const void* mutex) noexcept;

  /// Copy of this thread's held stack, acquisition order.
  [[nodiscard]] static std::vector<HeldLock> Held();

  /// Human-readable witness dump, one line per held lock.
  [[nodiscard]] static std::string Describe(
      const LockOrderViolation& violation);
};

/// A std::mutex that reports acquisitions to the LockOrderRegistry when
/// `kChecked`.  Satisfies Lockable, so std::unique_lock / lock_guard /
/// scoped_lock and std::condition_variable_any all work on it.  Tests
/// instantiate BasicRankedMutex<true> directly so the checked behaviour
/// is exercised in every build flavour.
template <bool kChecked>
class BasicRankedMutex {
 public:
  BasicRankedMutex(LockRank rank, const char* name)
      : rank_(static_cast<std::uint16_t>(rank)), name_(name) {}

  BasicRankedMutex(const BasicRankedMutex&) = delete;
  BasicRankedMutex& operator=(const BasicRankedMutex&) = delete;

  void lock() {
    if constexpr (kChecked) {
      LockOrderRegistry::OnAcquire(this, rank_, name_);
    }
    mutex_.lock();  // vorlint: ok(CONC-1) — this *is* the RAII wrapper
  }

  bool try_lock() {
    if (!mutex_.try_lock()) {  // vorlint: ok(CONC-1)
      return false;
    }
    if constexpr (kChecked) {
      // A successful try_lock cannot deadlock, but it still extends the
      // held stack, so it must respect the same order.
      LockOrderRegistry::OnAcquire(this, rank_, name_);
    }
    return true;
  }

  void unlock() {
    if constexpr (kChecked) {
      LockOrderRegistry::OnRelease(this);
    }
    mutex_.unlock();  // vorlint: ok(CONC-1)
  }

  [[nodiscard]] LockRank rank() const {
    return static_cast<LockRank>(rank_);
  }
  [[nodiscard]] const char* name() const { return name_; }

 private:
  std::mutex mutex_;
  std::uint16_t rank_;
  const char* name_;
};

/// Product alias: checking is compiled in per build (the tsan preset sets
/// VOR_LOCK_ORDER_CHECK=ON; default builds pay nothing).
#if defined(VOR_LOCK_ORDER_CHECK)
using RankedMutex = BasicRankedMutex<true>;
#else
using RankedMutex = BasicRankedMutex<false>;
#endif

}  // namespace vor::util
