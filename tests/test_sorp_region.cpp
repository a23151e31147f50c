// Golden byte-identity of region-sharded SORP: for every (regions x
// threads) combination the engine must emit exactly the bytes of the
// test-only monolithic reference loop (tests/reference_sorp.hpp).  The
// workload comes from the scale generator at full region affinity, so the
// file population actually partitions into multiple route-closed shards
// (the interesting regime — a collapsed single shard would make the grid
// vacuous), plus a boundary regression where global draws and a flash
// crowd straddle regions and force shard merging.  The service-level
// test pins the same identity through cycle closes and a snapshot
// restore.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/ivsp.hpp"
#include "core/overflow.hpp"
#include "core/sorp.hpp"
#include "io/binary.hpp"
#include "io/serialize.hpp"
#include "net/routing.hpp"
#include "obs/metrics.hpp"
#include "reference_sorp.hpp"
#include "svc/reservation_service.hpp"
#include "svc/snapshot.hpp"
#include "util/thread_pool.hpp"
#include "workload/scale.hpp"
#include "workload/scenario.hpp"
#include "workload/trace.hpp"

namespace vor::core {
namespace {

/// Region-skewed tight operating point: the Table-4 metro topology with
/// the request stream replaced by a scale-generator trace.  At affinity
/// 1.0 every region requests only its private catalog slice, so the file
/// population splits into one shard per natural region; `affinity` < 1
/// and a flash crowd re-couple the regions.  A positive `cap_streams`
/// caps every link at that many typical-title streams.
struct RegionEnv {
  explicit RegionEnv(double affinity, double flash_fraction = 0.0,
                     double cap_streams = 0.0) {
    workload::ScenarioParams params;
    params.storage_count = 12;
    params.users_per_neighborhood = 1;  // replaced below
    params.catalog_size = 120;
    params.is_capacity = util::GB(7);
    params.nrate_per_gb = 1000;
    params.srate_per_gb_hour = 3;
    scenario = workload::MakeScenario(params);

    workload::ScaleParams sp;
    sp.users = 1200;
    sp.region_affinity = affinity;
    sp.flash_fraction = flash_fraction;
    sp.flash_start = util::Hours(17.0);
    sp.flash_length = util::Hours(2.0);
    sp.buckets = 64;
    scenario.requests.clear();
    workload::GenerateScaleTrace(
        scenario.topology, scenario.catalog, sp,
        [this](const workload::Request* batch, std::size_t n) {
          scenario.requests.insert(scenario.requests.end(), batch, batch + n);
        });

    // A typical title streams size/playback ~ 0.58 MB/s.
    scenario.topology.SetUniformBandwidthCap(
        util::BytesPerSecond{cap_streams * 3.3e9 / (95.0 * 60.0)});
    router.emplace(scenario.topology);
    cm.emplace(scenario.topology, *router, scenario.catalog);
    phase1 = IvspSolve(scenario.requests, *cm, IvspOptions{});
  }

  workload::Scenario scenario;
  std::optional<net::Router> router;
  std::optional<CostModel> cm;
  Schedule phase1;
};

struct EngineRun {
  std::string bytes;
  SorpStats stats;
};

EngineRun RunEngine(const RegionEnv& env, std::size_t regions,
                    std::size_t threads,
                    obs::MetricsRegistry* metrics = nullptr) {
  Schedule schedule = env.phase1;
  std::optional<util::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  SorpOptions options;
  options.regions = regions;
  options.pool = pool.has_value() ? &*pool : nullptr;
  options.metrics = metrics;
  EngineRun run;
  run.stats = SorpSolve(schedule, env.scenario.requests, *env.cm, options);
  run.bytes = io::ScheduleToBinary(schedule);
  return run;
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// The test-only monolithic reference loop on the same input.
EngineRun RunReference(const RegionEnv& env) {
  Schedule schedule = env.phase1;
  EngineRun run;
  run.stats = oracle::ReferenceSorpSolve(schedule, env.scenario.requests,
                                         *env.cm, SorpOptions{});
  run.bytes = io::ScheduleToBinary(schedule);
  return run;
}

// Uncapped, and with every link capped at 1 and at 4 streams: capped
// dry runs each keep their own streams in a private delta over one shared
// load, concurrently across the pool and the shards.  One test per input,
// so ctest runs the three in parallel.
class SorpRegionGoldenGridTest : public ::testing::TestWithParam<double> {};

TEST_P(SorpRegionGoldenGridTest, GridMatchesMonolithic) {
  const double cap_streams = GetParam();
  const RegionEnv env(/*affinity=*/1.0, /*flash_fraction=*/0.0, cap_streams);
  const EngineRun reference = RunReference(env);
  ASSERT_TRUE(reference.stats.HadOverflow()) << "scenario must engage SORP";
  ASSERT_TRUE(reference.stats.Resolved());

  bool saw_multiple_shards = false;
  for (const std::size_t regions : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}, std::size_t{0}}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const EngineRun run = RunEngine(env, regions, threads);
      EXPECT_EQ(run.bytes, reference.bytes)
          << "diverged at regions=" << regions << " threads=" << threads;
      EXPECT_EQ(run.stats.victims_rescheduled,
                reference.stats.victims_rescheduled)
          << "victim count drifted at regions=" << regions
          << " threads=" << threads;
      if (regions == 1) {
        EXPECT_EQ(run.stats.region_shards, 0u)
            << "regions=1 must stay on the monolithic engine";
      }
      // One opening build of the whole schedule, one per shard; phase B
      // reuses the opening build.
      EXPECT_EQ(run.stats.usage_rebuilds, 1 + run.stats.region_shards)
          << "regions=" << regions << " threads=" << threads;
      // The opening detection reports the initial overflow in every
      // engine, bit for bit.
      EXPECT_EQ(run.stats.initial_overflow_windows,
                reference.stats.initial_overflow_windows);
      EXPECT_EQ(Bits(run.stats.initial_excess),
                Bits(reference.stats.initial_excess))
          << "regions=" << regions << " threads=" << threads;
      saw_multiple_shards |= run.stats.region_shards > 1;
    }
  }
  EXPECT_TRUE(saw_multiple_shards)
      << "affinity-1.0 workload should split into >1 shard somewhere in "
         "the grid, or the test is vacuous";
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, SorpRegionGoldenGridTest, ::testing::Values(0.0, 1.0, 4.0),
    [](const ::testing::TestParamInfo<double>& info) {
      return info.param == 0.0
                 ? std::string("uncapped")
                 : "cap" + std::to_string(static_cast<int>(info.param));
    });

// With capacity raised until nothing overflows, SORP stops at its opening
// detection in every engine: one build, no shards, no victims, the
// phase-1 bytes, and no second pricing.
TEST(SorpRegionGoldenTest, NoOverflowStopsAtTheOpeningBuild) {
  RegionEnv env(/*affinity=*/1.0);
  env.scenario.topology.SetUniformStorageCapacity(util::GB(1e6));
  ASSERT_TRUE(DetectOverflows(env.phase1, *env.cm).empty());
  const std::string phase1 = io::ScheduleToBinary(env.phase1);
  for (const std::size_t regions : {std::size_t{0}, std::size_t{1}}) {
    for (const std::size_t threads : {1u, 2u}) {
      obs::MetricsRegistry metrics;
      const EngineRun run = RunEngine(env, regions, threads, &metrics);
      EXPECT_EQ(run.bytes, phase1)
          << "regions=" << regions << " threads=" << threads;
      EXPECT_EQ(run.stats.usage_rebuilds, 1u);
      EXPECT_EQ(run.stats.region_shards, 0u);
      EXPECT_EQ(run.stats.victims_rescheduled, 0u);
      EXPECT_EQ(Bits(run.stats.cost_after.value()),
                Bits(run.stats.cost_before.value()));
      EXPECT_EQ(metrics.GetCounter("sorp.usage_rebuilds").value(), 1u);
      EXPECT_EQ(metrics.GetCounter("sorp.regions.shards").value(), 0u);
    }
  }
}

// A global-draw + flash-crowd workload leaves files whose footprint spans
// several base regions.  Closure merging must fold the straddled regions
// into one shard and still reproduce the monolithic bytes — a victim on a
// boundary file is resolved by exactly one shard, never two.
TEST(SorpRegionGoldenTest, BoundaryStraddlingVictimsMatch) {
  const RegionEnv env(/*affinity=*/0.85, /*flash_fraction=*/0.05);
  const EngineRun reference = RunReference(env);
  ASSERT_TRUE(reference.stats.HadOverflow()) << "scenario must engage SORP";

  obs::MetricsRegistry metrics;
  const EngineRun sharded =
      RunEngine(env, /*regions=*/0, /*threads=*/2, &metrics);
  EXPECT_EQ(sharded.bytes, reference.bytes);
  EXPECT_GT(metrics.GetCounter("sorp.regions.cross_files").value(), 0u)
      << "workload should produce boundary-straddling files";
  // Straddling files merge their regions: fewer shards than base regions.
  EXPECT_LT(metrics.GetCounter("sorp.regions.shards").value(),
            metrics.GetCounter("sorp.regions.base").value());

  for (const std::size_t regions : {std::size_t{2}, std::size_t{8}}) {
    const EngineRun run = RunEngine(env, regions, /*threads=*/8);
    EXPECT_EQ(run.bytes, reference.bytes)
        << "diverged at regions=" << regions;
  }
}

// The service stack must stay byte-deterministic with regions on: its
// closes and a mid-stream snapshot/restore commit exactly what a
// regions=1 service commits.
TEST(SorpRegionGoldenTest, ServiceSnapshotRestoreMatchesMonolithic) {
  const RegionEnv env(/*affinity=*/1.0);
  std::vector<workload::Request> requests = env.scenario.requests;
  workload::SortForReplay(requests);
  const std::size_t half = requests.size() / 2;

  const auto submit = [&requests](svc::ReservationService& service,
                                  std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      (void)service.Submit(requests[i], requests[i].start_time);
    }
  };

  // Reference: monolithic SORP, plain closes.
  svc::ServiceConfig plain_config;
  plain_config.scheduler.sorp_regions = 1;
  svc::ReservationService plain(env.scenario.topology, env.scenario.catalog,
                                plain_config);
  submit(plain, 0, half);
  ASSERT_TRUE(plain.CloseCycle().ok());
  submit(plain, half, requests.size());
  ASSERT_TRUE(plain.CloseCycle().ok());
  const std::string plain_bytes =
      io::ScheduleToBinary(plain.CommittedSchedule());

  // Region-sharded closes, snapshotted between the cycles and restored
  // into a fresh service for the second half.
  svc::ServiceConfig region_config;
  region_config.scheduler.sorp_regions = 0;  // auto
  region_config.scheduler.parallel.threads = 2;
  svc::ReservationService sharded(env.scenario.topology, env.scenario.catalog,
                                  region_config);
  submit(sharded, 0, half);
  ASSERT_TRUE(sharded.CloseCycle().ok());

  const svc::ServiceSnapshot snapshot = sharded.Snapshot();
  svc::ReservationService restored(env.scenario.topology,
                                   env.scenario.catalog, region_config);
  ASSERT_TRUE(restored.Restore(snapshot).ok());
  submit(restored, half, requests.size());
  ASSERT_TRUE(restored.CloseCycle().ok());

  EXPECT_EQ(io::ScheduleToBinary(restored.CommittedSchedule()), plain_bytes)
      << "region-sharded service diverged from the monolithic reference "
         "across snapshot restore";
}

}  // namespace
}  // namespace vor::core
