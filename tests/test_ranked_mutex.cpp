// util::RankedMutex / LockOrderRegistry: the runtime half of the CONC-4
// lock-order contract.  Tests instantiate BasicRankedMutex<true> directly
// so the checked path runs in every build flavour; the product alias
// flips to the checked variant only under -DVOR_LOCK_ORDER_CHECK=ON (the
// tsan preset), where the svc/rpc/obs suites exercise it end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "svc/reservation_service.hpp"
#include "test_helpers.hpp"
#include "util/lock_order.hpp"
#include "workload/scenario.hpp"
#include "workload/trace.hpp"

namespace vor {
namespace {

using util::BasicRankedMutex;
using util::LockOrderRegistry;
using util::LockOrderViolation;
using util::LockRank;

using CheckedMutex = BasicRankedMutex<true>;

std::vector<LockOrderViolation>& Violations() {
  static std::vector<LockOrderViolation> violations;
  return violations;
}

void CaptureViolation(const LockOrderViolation& violation) {
  Violations().push_back(violation);
}

/// Installs the capturing handler for the test body and restores the
/// default afterwards; every test starts with an empty held stack.
class RankedMutexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Violations().clear();
    previous_ = LockOrderRegistry::SetViolationHandler(&CaptureViolation);
    ASSERT_TRUE(LockOrderRegistry::Held().empty());
  }
  void TearDown() override {
    LockOrderRegistry::SetViolationHandler(previous_);
    EXPECT_TRUE(LockOrderRegistry::Held().empty())
        << "a test leaked a held lock";
  }

 private:
  LockOrderRegistry::Handler previous_ = nullptr;
};

TEST_F(RankedMutexTest, AscendingRanksAreClean) {
  CheckedMutex clock(LockRank::kSvcClock, "t.clock");
  CheckedMutex cycle(LockRank::kSvcCycle, "t.cycle");
  CheckedMutex registry(LockRank::kObsRegistry, "t.registry");
  CheckedMutex instrument(LockRank::kObsInstrument, "t.instrument");
  {
    // Acquired strictly in rank order (std::scoped_lock's deadlock-
    // avoidance may acquire in an unspecified order, so lock singly).
    std::lock_guard l1(clock);
    std::lock_guard l2(cycle);
    std::lock_guard l3(registry);
    std::lock_guard l4(instrument);
    EXPECT_EQ(LockOrderRegistry::Held().size(), 4u);
  }
  EXPECT_TRUE(Violations().empty());
  EXPECT_TRUE(LockOrderRegistry::Held().empty());
}

TEST_F(RankedMutexTest, DownwardAcquireReportsWitness) {
  CheckedMutex cycle(LockRank::kSvcCycle, "t.cycle");
  CheckedMutex clock(LockRank::kSvcClock, "t.clock");
  std::lock_guard hold(cycle);
  {
    std::lock_guard breach(clock);  // rank 10 under rank 20
  }
  ASSERT_EQ(Violations().size(), 1u);
  const LockOrderViolation& v = Violations().front();
  EXPECT_EQ(v.kind, LockOrderViolation::Kind::kRankOrder);
  EXPECT_STREQ(v.attempted.name, "t.clock");
  ASSERT_EQ(v.held.size(), 1u);
  EXPECT_STREQ(v.held[0].name, "t.cycle");

  const std::string witness = LockOrderRegistry::Describe(v);
  EXPECT_NE(witness.find("rank-order breach acquiring t.clock"),
            std::string::npos)
      << witness;
  EXPECT_NE(witness.find("t.cycle (rank 20)  <- blocks rank 10"),
            std::string::npos)
      << witness;
}

TEST_F(RankedMutexTest, EqualRanksNeverNestEvenAcrossInstances) {
  // Two obs instruments share a rank because they are never supposed to
  // be held together; holding both must trip the witness.
  CheckedMutex timer(LockRank::kObsInstrument, "t.timer");
  CheckedMutex series(LockRank::kObsInstrument, "t.series");
  std::lock_guard hold(timer);
  {
    std::lock_guard breach(series);
  }
  ASSERT_EQ(Violations().size(), 1u);
  EXPECT_EQ(Violations().front().kind, LockOrderViolation::Kind::kRankOrder);
  EXPECT_STREQ(Violations().front().attempted.name, "t.series");
}

TEST_F(RankedMutexTest, RecursiveReacquireIsItsOwnKind) {
  CheckedMutex cycle(LockRank::kSvcCycle, "t.cycle");
  cycle.lock();
  // Second acquisition of the same instance would self-deadlock at
  // runtime; the registry reports it before the block.  The capturing
  // handler returns, so balance the stack without touching the
  // underlying std::mutex again (that would really deadlock).
  LockOrderRegistry::OnAcquire(&cycle, 20, "t.cycle");
  ASSERT_EQ(Violations().size(), 1u);
  const LockOrderViolation& v = Violations().front();
  EXPECT_EQ(v.kind, LockOrderViolation::Kind::kRecursive);
  EXPECT_NE(LockOrderRegistry::Describe(v).find("recursive acquisition"),
            std::string::npos);
  EXPECT_NE(LockOrderRegistry::Describe(v).find("<- same mutex"),
            std::string::npos);
  LockOrderRegistry::OnRelease(&cycle);
  cycle.unlock();
}

TEST_F(RankedMutexTest, OutOfLifoReleaseIsLegal) {
  CheckedMutex cycle(LockRank::kSvcCycle, "t.cycle");
  CheckedMutex shard(LockRank::kSvcIntakeShard, "t.shard");
  CheckedMutex spill(LockRank::kSvcSpill, "t.spill");
  cycle.lock();
  shard.lock();
  cycle.unlock();  // release the oldest first: guards may outlive freely
  spill.lock();    // held = {shard(30)} -> 40 is still ascending
  shard.unlock();
  spill.unlock();
  EXPECT_TRUE(Violations().empty());
  EXPECT_TRUE(LockOrderRegistry::Held().empty());
}

TEST_F(RankedMutexTest, TryLockRecordsOnlyOnSuccessAndChecksOrder) {
  CheckedMutex cycle(LockRank::kSvcCycle, "t.cycle");
  CheckedMutex clock(LockRank::kSvcClock, "t.clock");

  ASSERT_TRUE(cycle.try_lock());
  EXPECT_EQ(LockOrderRegistry::Held().size(), 1u);

  // A failed try_lock (contended from another thread) records nothing.
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    std::lock_guard hold(clock);
    held.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  while (!held.load()) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(clock.try_lock());
  EXPECT_EQ(LockOrderRegistry::Held().size(), 1u);
  EXPECT_TRUE(Violations().empty());
  release.store(true);
  holder.join();

  // A successful try_lock extends the stack and must respect the order.
  ASSERT_TRUE(clock.try_lock());
  ASSERT_EQ(Violations().size(), 1u);
  EXPECT_EQ(Violations().front().kind, LockOrderViolation::Kind::kRankOrder);
  clock.unlock();
  cycle.unlock();
}

TEST_F(RankedMutexTest, ConditionVariableAnyRebalancesTheStack) {
  CheckedMutex cycle(LockRank::kSvcCycle, "t.cycle");
  std::condition_variable_any cv;
  std::unique_lock lock(cycle);
  // The wait releases (OnRelease) and re-acquires (OnAcquire) under the
  // hood; afterwards the stack must hold exactly this mutex again.
  (void)cv.wait_for(lock, std::chrono::milliseconds(5),
                    [] { return false; });
  ASSERT_EQ(LockOrderRegistry::Held().size(), 1u);
  EXPECT_STREQ(LockOrderRegistry::Held()[0].name, "t.cycle");
  EXPECT_TRUE(Violations().empty());
}

TEST_F(RankedMutexTest, HeldStackIsPerThread) {
  CheckedMutex cycle(LockRank::kSvcCycle, "t.cycle");
  std::lock_guard hold(cycle);
  std::size_t other_depth = 999;
  std::thread observer(
      [&other_depth] { other_depth = LockOrderRegistry::Held().size(); });
  observer.join();
  EXPECT_EQ(other_depth, 0u);
  EXPECT_EQ(LockOrderRegistry::Held().size(), 1u);
}

// The product-path integration: a service driven like the soak
// (concurrent producers, snapshot racing the close).  In default builds
// RankedMutex is the unchecked variant and this is a plain smoke; under
// the tsan preset (VOR_LOCK_ORDER_CHECK=ON) every svc/obs mutex here runs
// the witness, and any rank breach aborts.
TEST_F(RankedMutexTest, ServiceSnapshotCloseInterleavingHoldsTheOrder) {
  workload::ScenarioParams params;
  params.storage_count = 4;
  params.users_per_neighborhood = 3;
  params.catalog_size = 20;
  params.is_capacity = util::GB(40.0);
  params.seed = 7;
  const workload::Scenario scenario = workload::MakeScenario(params);

  svc::ServiceConfig config;
  config.shards = 4;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);

  std::vector<workload::Request> requests = scenario.requests;
  workload::SortForReplay(requests);
  const std::size_t mid = requests.size() / 2;

  const auto start_producers = [&](std::size_t lo, std::size_t hi) {
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < 2; ++p) {
      producers.emplace_back([&, lo, hi, p] {
        for (std::size_t i = lo + p; i < hi; i += 2) {
          const auto outcome =
              service.Submit(requests[i], requests[i].start_time);
          EXPECT_NE(outcome, svc::SubmitOutcome::kRejectedInvalid);
        }
      });
    }
    return producers;
  };

  for (std::thread& t : start_producers(0, mid)) t.join();

  // The second half's producers and a snapshot race the close.
  std::vector<std::thread> racing = start_producers(mid, requests.size());
  racing.emplace_back([&service] {
    const svc::ServiceSnapshot snapshot = service.Snapshot();
    EXPECT_LE(snapshot.committed.size(), 1u << 20);
  });
  const auto stats = service.CloseCycle();
  for (std::thread& t : racing) t.join();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  ASSERT_TRUE(service.CloseCycle().ok());
  EXPECT_EQ(service.PendingCount(), 0u);
  EXPECT_TRUE(Violations().empty());
}

// Death tests live in their own suite so the tsan ctest filter (which
// runs the RankedMutex suite) never forks them under the race detector.
using LockOrderAbort = RankedMutexTest;

TEST_F(LockOrderAbort, DefaultHandlerDumpsWitnessAndAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        LockOrderRegistry::SetViolationHandler(nullptr);  // default
        CheckedMutex cycle(LockRank::kSvcCycle, "t.cycle");
        CheckedMutex clock(LockRank::kSvcClock, "t.clock");
        std::lock_guard hold(cycle);
        std::lock_guard breach(clock);
      },
      "vor: lock-order violation: rank-order breach acquiring t.clock");
}

}  // namespace
}  // namespace vor
