// Self-checking smoke binary for the gates `scripts/check.sh bench-smoke`
// and `bench-region`.  Performance is measured by e2ebench (see
// BENCHMARK.json); this binary only asserts invariants and prints one
// ok/FAIL line per check, exiting non-zero on any failure.
//
//   bench_smoke --smoke         bounded-memory 1M-request streaming replay,
//                               hostile section length, SORP stress solve
//   bench_smoke --region-smoke  region-sharded SORP invariants and
//                               byte-identity against the monolithic loop
//   bench_smoke                 both, in that order
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__)
#include <sys/resource.h>
#endif

#include "core/ivsp.hpp"
#include "core/overflow.hpp"
#include "core/sorp.hpp"
#include "io/binary.hpp"
#include "io/serialize.hpp"
#include "media/catalog.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"
#include "workload/scale.hpp"
#include "workload/scenario.hpp"
#include "workload/trace_stream.hpp"

namespace {

using namespace vor;

/// Counts failed checks and prints one line per check.
class Checks {
 public:
  void Require(bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << '\n';
    if (!ok) ++failures_;
  }

  int Finish(const std::string& gate) const {
    if (failures_ != 0) {
      std::cerr << "bench_smoke " << gate << ": " << failures_
                << " check(s) failed\n";
      return 1;
    }
    std::cout << "bench_smoke " << gate << ": all checks passed\n";
    return 0;
  }

 private:
  int failures_ = 0;
};

// ---- bounded-memory streaming replay ---------------------------------------

/// Synthetic request `i` of a trace in canonical replay order: strictly
/// increasing starts (0.125 is exact in binary), so the record-at-a-time
/// writer needs no sort.
workload::Request SyntheticRequest(std::size_t i) {
  workload::Request r;
  r.user = static_cast<workload::UserId>(i % 100000);
  r.video = static_cast<media::VideoId>((i * 2654435761u) % 2000);
  r.start_time = util::Seconds{static_cast<double>(i) * 0.125};
  r.neighborhood = static_cast<net::NodeId>(i % 64);
  return r;
}

#if defined(__unix__)
double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}
#endif

/// Streams a 1M-request binary trace, written record-at-a-time through a
/// file sink, and checks the replay never materializes the request vector:
/// peak RSS growth across the replay stays within 8 MB, far below the
/// ~30 MB the vector alone would need.  ru_maxrss is a lifetime peak, so
/// this must run before any allocation-heavy check.
bool StreamingReplayRssCheck(std::string* detail) {
  constexpr std::size_t kStreamRequests = 1000000;
  const std::string path = "bench_smoke_stream_trace.vorb";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      *detail = "cannot open " + path;
      return false;
    }
    io::BinaryWriter writer(
        [&out](const char* data, std::size_t n) {
          out.write(data, static_cast<std::streamsize>(n));
        },
        io::BinaryKind::kTrace);
    // One chunk's worth of records in memory at a time, never the trace.
    std::vector<workload::Request> chunk;
    chunk.reserve(io::kTraceChunkRecords);
    for (std::size_t i = 0; i < kStreamRequests; ++i) {
      chunk.push_back(SyntheticRequest(i));
      if (chunk.size() == io::kTraceChunkRecords) {
        io::WriteRequestChunk(writer, io::kSecTraceChunk, chunk.data(),
                              chunk.size());
        chunk.clear();
      }
    }
    if (!chunk.empty()) {
      io::WriteRequestChunk(writer, io::kSecTraceChunk, chunk.data(),
                            chunk.size());
    }
    writer.Finish();
  }

#if defined(__unix__)
  const double rss_before = PeakRssMb();
#endif
  std::size_t streamed = 0;
  bool ok = true;
  {
    auto stream = workload::TraceStream::OpenFile(path);
    if (!stream.ok()) {
      *detail = stream.error().message;
      std::remove(path.c_str());
      return false;
    }
    workload::Request r;
    while (true) {
      const auto more = stream->Next(r);
      if (!more.ok()) {
        *detail = more.error().message;
        ok = false;
        break;
      }
      if (!*more) break;
      ++streamed;
    }
  }
  std::remove(path.c_str());
  if (!ok) return false;
  if (streamed != kStreamRequests) {
    *detail = "streamed " + std::to_string(streamed) + " of " +
              std::to_string(kStreamRequests);
    return false;
  }
#if defined(__unix__)
  const double growth = PeakRssMb() - rss_before;
  *detail = "1M requests, peak RSS growth " + std::to_string(growth) + " MB";
  // The streaming window is one 4096-record chunk.
  if (growth > 8.0) return false;
#else
  *detail = "1M requests (RSS check skipped: no getrusage)";
#endif
  return true;
}

// ---- hostile section length ------------------------------------------------

/// A 15-byte vor-bin trace declares a section of kMaxSectionPayload
/// bytes (1 GiB) and supplies three.  Both trace readers, the streaming
/// one and the whole-buffer one, must reject it as truncated, and peak
/// RSS may grow by at most 8 MB across both: a reader that sized its
/// buffer by the declared length would zero-fill the gigabyte first.
bool HostileLengthRssCheck(std::string* detail) {
  const std::string path = "bench_smoke_hostile_trace.vorb";
  std::string bytes(io::kBinaryMagic, sizeof io::kBinaryMagic);
  io::AppendVarint(bytes, io::kBinaryVersion);
  io::AppendVarint(bytes, static_cast<std::uint64_t>(io::BinaryKind::kTrace));
  io::AppendVarint(bytes, io::kSecTraceChunk);
  io::AppendVarint(bytes, io::kMaxSectionPayload);
  bytes.append("abc");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      *detail = "cannot write " + path;
      return false;
    }
  }

#if defined(__unix__)
  const double rss_before = PeakRssMb();
#endif
  bool stream_rejected = false;
  {
    auto stream = workload::TraceStream::OpenFile(path);
    workload::Request r;
    stream_rejected = !stream.ok() || !stream->Next(r).ok();
  }
  const auto file = io::ReadFile(path);
  const bool decode_rejected = file.ok() && !io::TraceFromBinary(*file).ok();
  std::remove(path.c_str());
  *detail = std::to_string(bytes.size()) + "-byte file";
  if (!stream_rejected) *detail += ", TraceStream accepted it";
  if (!decode_rejected) *detail += ", TraceFromBinary accepted it";
#if defined(__unix__)
  const double growth = PeakRssMb() - rss_before;
  *detail += ", peak RSS growth " + std::to_string(growth) + " MB";
  if (growth > 8.0) return false;
#else
  *detail += " (RSS check skipped: no getrusage)";
#endif
  return stream_rejected && decode_rejected;
}

// ---- SORP stress solve -----------------------------------------------------

/// 64 IS (16 hubs) x 312 users = 19,968 reservations over 2,000 titles,
/// with 150 GB stores: phase 1 overcommits the tree several-fold, so the
/// resolution would run for hundreds of rounds; the smoke caps it at 16.
/// The widened hub tier spreads the overflow across the tree instead of
/// funnelling it onto a couple of hubs.
workload::Scenario MakeStressScenario() {
  workload::ScenarioParams params;
  params.storage_count = 64;
  params.hub_count = 16;
  params.users_per_neighborhood = 312;
  params.catalog_size = 2000;
  params.is_capacity = util::GB(150);
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  return workload::MakeScenario(params);
}

constexpr std::size_t kStressMaxRounds = 16;

int RunSmoke() {
  Checks checks;
  std::string stream_detail;
  const bool stream_bounded = StreamingReplayRssCheck(&stream_detail);
  checks.Require(stream_bounded, "streaming replay keeps memory bounded (" +
                                     stream_detail + ")");
  std::string hostile_detail;
  const bool hostile_bounded = HostileLengthRssCheck(&hostile_detail);
  checks.Require(hostile_bounded,
                 "a hostile section length is rejected in bounded memory (" +
                     hostile_detail + ")");

  const workload::Scenario scenario = MakeStressScenario();
  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);
  core::Schedule schedule =
      core::IvspSolve(scenario.requests, cm, core::IvspOptions{});
  obs::MetricsRegistry registry;
  core::SorpOptions options;
  options.max_iterations = kStressMaxRounds;
  options.metrics = &registry;
  const obs::Stopwatch watch;
  const core::SorpStats stats =
      core::SorpSolve(schedule, scenario.requests, cm, options);
  const double sorp_seconds = watch.Seconds();
  const std::string metrics_json = registry.ToJson().Dump(2);

  checks.Require(stats.HadOverflow(), "stress scenario engages SORP");
  checks.Require(stats.victims_rescheduled > 0, "victims rescheduled > 0");
  checks.Require(stats.usage_rebuilds == 1,
                 "SORP builds the usage aggregate exactly once");
  checks.Require(stats.evaluations_abandoned > 0,
                 "dry runs that cannot win are abandoned (" +
                     std::to_string(stats.evaluations_abandoned) + ")");
  for (const std::string key :
       {"sorp.rounds", "sorp.candidates_evaluated", "sorp.usage_rebuilds",
        "sorp.victims_rescheduled", "sorp.initial_overflow_windows",
        "sorp.evaluation", "sorp.reschedule.candidates_priced",
        "sorp.evaluations_abandoned"}) {
    checks.Require(metrics_json.find('"' + key + '"') != std::string::npos,
                   "metrics schema has " + key);
  }
  std::cout << "stress: sorp " << sorp_seconds << " s, "
            << stats.victims_rescheduled << " rounds, " << stats.evaluations
            << " evaluations (" << stats.evaluations_abandoned
            << " abandoned), "
            << (stats.Resolved() ? "resolved" : "unresolved (capped)")
            << '\n';
  return checks.Finish("--smoke");
}

// ---- region-sharded SORP ---------------------------------------------------

/// A region-skewed scale-generator workload: 48 IS / 16 hubs, 2,000
/// titles, 400 GB stores, 50,000 users at full region affinity, so the
/// file population partitions into one shard per natural region.
workload::Scenario MakeRegionScenario() {
  workload::Scenario s;
  net::PaperTopologyParams topo;
  topo.storage_count = 48;
  topo.hub_count = 16;
  topo.storage_capacity = util::GB(400);
  topo.srate = util::StorageRate{3.0 / (1e9 * 3600.0)};
  topo.base_nrate = util::NetworkRate{1000.0 / 1e9};
  s.topology = net::MakePaperTopology(topo);

  media::CatalogParams cat;
  cat.count = 2000;
  s.catalog = media::MakeSyntheticCatalog(cat);

  workload::ScaleParams scale;
  scale.users = 50000;
  scale.region_affinity = 1.0;
  scale.diurnal_depth = 0.6;
  s.requests.reserve(scale.users);
  workload::GenerateScaleTrace(
      s.topology, s.catalog, scale,
      [&s](const workload::Request* batch, std::size_t n) {
        s.requests.insert(s.requests.end(), batch, batch + n);
      });
  return s;
}

struct RegionRun {
  core::SorpStats stats;
  std::string bytes;
};

RegionRun RunRegionSorp(const workload::Scenario& scenario,
                        const core::CostModel& cm,
                        const core::Schedule& phase1, std::size_t regions,
                        std::size_t threads) {
  core::Schedule schedule = phase1;
  std::optional<util::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  core::SorpOptions options;
  options.regions = regions;
  options.pool = pool.has_value() ? &*pool : nullptr;
  RegionRun run;
  run.stats = core::SorpSolve(schedule, scenario.requests, cm, options);
  run.bytes = io::ScheduleToBinary(schedule);
  return run;
}

/// Checks invariants, not the wall clock (too noisy under sanitizers): a
/// genuinely multi-shard plan, the structural work reduction (the region
/// engine evaluates strictly fewer candidates than the monolithic loop),
/// resolution, byte-identity at several (regions x threads) points, and
/// the same abandoned dry runs at any thread count.
int RunRegionSmoke() {
  const workload::Scenario scenario = MakeRegionScenario();
  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);
  const core::Schedule phase1 =
      core::IvspSolve(scenario.requests, cm, core::IvspOptions{});

  Checks checks;
  const RegionRun mono =
      RunRegionSorp(scenario, cm, phase1, /*regions=*/1, /*threads=*/1);
  checks.Require(mono.stats.HadOverflow(), "scenario engages SORP");
  checks.Require(mono.stats.victims_rescheduled > 0,
                 "victims rescheduled > 0");
  checks.Require(mono.stats.Resolved(), "monolithic run resolves");

  // Per regions setting, the abandoned count of its first thread count.
  std::map<std::size_t, std::size_t> abandoned{
      {1, mono.stats.evaluations_abandoned}};
  for (const auto& [regions, threads] :
       {std::pair<std::size_t, std::size_t>{1, 2},
        std::pair<std::size_t, std::size_t>{0, 1},
        std::pair<std::size_t, std::size_t>{0, 2},
        std::pair<std::size_t, std::size_t>{4, 1},
        std::pair<std::size_t, std::size_t>{4, 2}}) {
    const RegionRun run = RunRegionSorp(scenario, cm, phase1, regions, threads);
    const std::string point = "regions=" + std::to_string(regions) +
                              " threads=" + std::to_string(threads);
    checks.Require(run.bytes == mono.bytes, "byte-identical at " + point);
    const auto [first, inserted] =
        abandoned.emplace(regions, run.stats.evaluations_abandoned);
    if (!inserted) {
      checks.Require(first->second == run.stats.evaluations_abandoned,
                     "same abandoned dry runs at " + point + " (" +
                         std::to_string(run.stats.evaluations_abandoned) +
                         " vs " + std::to_string(first->second) + ")");
    }
    if (regions == 0 && threads == 1) {
      checks.Require(run.stats.region_shards > 1,
                     "auto plan forms >1 shard (" +
                         std::to_string(run.stats.region_shards) + ")");
      checks.Require(run.stats.evaluations < mono.stats.evaluations,
                     "region engine evaluates fewer candidates (" +
                         std::to_string(run.stats.evaluations) + " < " +
                         std::to_string(mono.stats.evaluations) + ")");
      checks.Require(run.stats.Resolved(), "region run resolves");
    }
  }

  // The short-circuit: with capacity raised until phase 1 overflows
  // nowhere, SORP stops at its opening detection.
  workload::Scenario loose = scenario;
  const net::Router loose_router(loose.topology);
  const core::CostModel loose_cm(loose.topology, loose_router, loose.catalog);
  util::Bytes capacity = util::GB(400);
  do {
    capacity = capacity * 2.0;
    loose.topology.SetUniformStorageCapacity(capacity);
  } while (!core::DetectOverflows(phase1, loose_cm).empty());
  const RegionRun idle =
      RunRegionSorp(loose, loose_cm, phase1, /*regions=*/0, /*threads=*/2);
  checks.Require(idle.stats.usage_rebuilds == 1,
                 "no overflow: one aggregate build (" +
                     std::to_string(idle.stats.usage_rebuilds) + ")");
  checks.Require(idle.stats.region_shards == 0, "no overflow: no shards");
  checks.Require(idle.stats.victims_rescheduled == 0,
                 "no overflow: no victims");
  checks.Require(idle.bytes == io::ScheduleToBinary(phase1),
                 "no overflow: phase-1 bytes unchanged");
  std::cout << scenario.requests.size() << " requests\n";
  return checks.Finish("--region-smoke");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc == 2 ? argv[1] : "";
  if (argc > 2 ||
      (argc == 2 && mode != "--smoke" && mode != "--region-smoke")) {
    std::cerr << "usage: bench_smoke [--smoke | --region-smoke]\n";
    return 2;
  }
  // --smoke first: its RSS check needs a fresh process-lifetime peak.
  int failed = 0;
  if (mode != "--region-smoke") failed |= RunSmoke();
  if (mode != "--smoke") failed |= RunRegionSmoke();
  return failed;
}
