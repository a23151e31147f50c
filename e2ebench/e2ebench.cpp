// e2ebench — end-to-end reservation-day replay over vor-rpc/1.
//
// One process hosts an rpc::Server in front of a svc::ReservationService
// on loopback and drives it from kConnections client connections.  A
// seeded workload::GenerateScaleTrace day is cut into virtual-time
// windows (the rpc::RunLoad discipline): each window's requests are
// submitted round-robin over the connections, every connection waiting
// for its ack (a closed loop), then one connection sends kCycleClose.
// After the last window the deferred backlog is drained.  Closes order
// each batch canonically, so the committed schedule is byte-identical
// from run to run: cost and admission outcomes repeat exactly while the
// timings vary.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//
// --trace 0 measures the end-to-end metrics with no registry attached.
// --trace 1 replays the same windows once more with the service's metrics
// registry on, and once in-process with spans taken around each public
// call from this file, and reports the per-layer metrics.  Every run
// checks its outputs and its regime (see Checks below).  The last stdout
// line is the JSON result; README.md lists every metric.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/scheduler.hpp"
#include "io/binary.hpp"
#include "io/serialize.hpp"
#include "media/catalog.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "sim/validator.hpp"
#include "svc/reservation_service.hpp"
#include "svc/snapshot.hpp"
#include "util/stats.hpp"
#include "workload/scale.hpp"
#include "workload/trace_stream.hpp"

namespace {

using namespace vor;

/// Client connections; equal to the cores of the reference host.
constexpr std::size_t kConnections = 4;
/// Solver worker threads (ServiceConfig::scheduler.parallel).
constexpr std::size_t kSolverThreads = 4;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 7;
/// Untraced runs replay at least this often; see BestPerIndex.
constexpr std::size_t kMinReplays = 2;
/// Checkpoint snapshots after the drain on workloads that do not
/// snapshot every close; snapshot_p50_ms is their median.
constexpr std::size_t kCheckpoints = 5;
/// A window contributes latency quantiles only with at least this many
/// samples, so its 99th percentile has ten samples beyond it.
constexpr std::size_t kMinWindowSamples = 1000;
/// Backlog-drain cap, as in rpc::RunLoad.
constexpr std::size_t kMaxDrainCloses = 16;

enum class Regime {
  /// SORP resolves real overflow and dominates close time.
  kSorpBound,
  /// No IS ever overflows: the SORP victim loop never runs.
  kSorpIdle,
};

struct Workload {
  std::string_view name;
  double capacity_gb;
  std::size_t users;
  std::size_t windows;
  /// Trigger a snapshot after every close, overlapping the next window's
  /// submits; otherwise kCheckpoints snapshots after the drain.
  bool snapshot_every_close;
  Regime regime;
};

// Why each workload exists is recorded in README.md.  All share the
// 48-IS / 16-hub / 2000-title metro at nrate 1000, srate 3.
constexpr Workload kWorkloads[] = {
    {"tight_day", 400.0, 200'000, 24, false, Regime::kSorpBound},
    {"snapshot_day", 100'000.0, 300'000, 96, true, Regime::kSorpIdle},
};

// ---- small helpers -------------------------------------------------------

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : util::Percentile(std::move(values), 50.0);
}

double LowerQuartile(std::vector<double> values) {
  return values.empty() ? 0.0 : util::Percentile(std::move(values), 25.0);
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// One progress line per phase, so a slow run shows where it went.
void LogPhase(const char* phase, double start) {
  std::cout << "phase " << phase << ' ' << std::setprecision(4)
            << Now() - start << " s" << std::endl;
}

/// Named samples taken by this file around calls into each layer: wall
/// seconds, and the snapshot size.  Traced runs only.  Thread-safe.
class SpanLog {
 public:
  void Record(const std::string& name, double seconds) {
    std::lock_guard lock(mutex_);
    samples_[name].push_back(seconds);
  }
  [[nodiscard]] std::vector<double> Samples(const std::string& name) const {
    std::lock_guard lock(mutex_);
    const auto it = samples_.find(name);
    return it == samples_.end() ? std::vector<double>{} : it->second;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Times one call into `log` under `name`; no-op without a log.
template <class F>
auto Spanned(SpanLog* log, const char* name, F&& call) {
  const double t0 = Now();
  auto result = call();
  if (log != nullptr) log->Record(name, Now() - t0);
  return result;
}

// ---- environment and trace -----------------------------------------------

struct Env {
  net::Topology topology;
  media::Catalog catalog;
  /// The decoded trace in canonical replay order.
  std::vector<workload::Request> trace;
  /// [begin, end) index ranges of each virtual-time window, empty
  /// windows included (each is still closed, as rpc::RunLoad does).
  std::vector<std::pair<std::size_t, std::size_t>> windows;
};

/// Scenario and trace generation, vor-bin encode, streamed decode, and
/// the window cut.  The environment is fixed; only the trace depends on
/// `seed`.
util::Result<Env> BuildEnv(const Workload& w, std::uint64_t seed,
                           SpanLog* spans) {
  Env env;
  net::PaperTopologyParams topo;
  topo.storage_count = 48;
  topo.hub_count = 16;
  topo.storage_capacity = util::GB(w.capacity_gb);
  topo.srate = util::StorageRate{3.0 / (1e9 * 3600.0)};
  topo.base_nrate = util::NetworkRate{1000.0 / 1e9};
  env.topology = net::MakePaperTopology(topo);
  media::CatalogParams cat;
  cat.count = 2000;
  env.catalog = media::MakeSyntheticCatalog(cat);

  workload::ScaleParams scale;
  scale.users = w.users;
  scale.region_affinity = 1.0;
  scale.diurnal_depth = 0.6;
  scale.seed = seed;
  std::string bytes;
  workload::WriteScaleTrace(env.topology, env.catalog, scale,
                            [&bytes](const char* data, std::size_t n) {
                              bytes.append(data, n);
                            });

  auto decoded = Spanned(spans, "io.trace_decode",
                         [&]() -> util::Result<std::vector<workload::Request>> {
                           auto stream =
                               workload::TraceStream::FromBytes(std::move(bytes));
                           if (!stream.ok()) return stream.error();
                           std::vector<workload::Request> out;
                           out.reserve(w.users);
                           workload::Request r;
                           while (true) {
                             auto more = stream->Next(r);
                             if (!more.ok()) return more.error();
                             if (!*more) break;
                             out.push_back(r);
                           }
                           return out;
                         });
  if (!decoded.ok()) return decoded.error();
  env.trace = std::move(*decoded);
  if (env.trace.empty()) return util::InvalidArgument("empty trace");

  // Windows anchored at the earliest request, one per crossed boundary.
  const double cycle = 86400.0 / static_cast<double>(w.windows);
  const double t0 = env.trace.front().start_time.value();
  std::size_t begin = 0;
  for (std::size_t i = 0; i < env.trace.size(); ++i) {
    while (env.trace[i].start_time.value() >=
           t0 + static_cast<double>(env.windows.size() + 1) * cycle) {
      env.windows.emplace_back(begin, i);
      begin = i;
    }
  }
  env.windows.emplace_back(begin, env.trace.size());
  return env;
}

svc::ServiceConfig MakeServiceConfig(obs::MetricsRegistry* registry) {
  svc::ServiceConfig config;
  config.scheduler.sorp_regions = 0;  // auto
  config.scheduler.parallel.threads = kSolverThreads;
  config.metrics = registry;
  return config;
}

/// Intake bound per window: every shard full plus the spill queue.
std::size_t IntakeBound(const svc::ServiceConfig& c) {
  return c.shards * c.shard_capacity + c.deferred_capacity;
}

/// Snapshot -> vor-bin encode -> file, each step spanned.
util::Result<std::string> WriteSnapshot(const svc::ReservationService& service,
                                        const std::string& path,
                                        SpanLog* spans) {
  const svc::ServiceSnapshot snap =
      Spanned(spans, "svc.snapshot", [&] { return service.Snapshot(); });
  const std::string bytes = Spanned(spans, "io.snapshot_encode",
                                    [&] { return svc::SnapshotToBinary(snap); });
  const util::Status written = Spanned(
      spans, "io.snapshot_write", [&] { return io::WriteFile(path, bytes); });
  if (!written.ok()) return written.error();
  if (spans != nullptr) {
    spans->Record("io.snapshot_bytes", static_cast<double>(bytes.size()));
  }
  return path;
}

// ---- the two paths a replay can take --------------------------------------

/// Replays over vor-rpc/1: an in-process server, kConnections clients.
class WirePath {
 public:
  WirePath(const Env& env, obs::MetricsRegistry* registry,
           std::string snapshot_path)
      : service_(env.topology, env.catalog, MakeServiceConfig(registry)) {
    rpc::ServerConfig config;
    config.max_connections = kConnections;
    config.read_timeout_seconds = 600.0;
    config.metrics = registry;
    config.snapshot_writer = [this, snapshot_path = std::move(snapshot_path)] {
      return WriteSnapshot(service_, snapshot_path, nullptr);
    };
    server_ = std::make_unique<rpc::Server>(service_, std::move(config));
  }

  WirePath(const WirePath&) = delete;
  WirePath& operator=(const WirePath&) = delete;

  util::Status Start() {
    if (auto s = server_->Start(); !s.ok()) return s;
    rpc::ClientConfig config;
    config.endpoints = {rpc::Endpoint{"127.0.0.1", server_->port()}};
    config.call_timeout_seconds = 170.0;
    for (std::size_t i = 0; i < kConnections; ++i) {
      clients_.push_back(std::make_unique<rpc::Client>(config));
      if (auto s = clients_.back()->Connect(); !s.ok()) return s;
    }
    return util::Status::Ok();
  }

  util::Result<svc::SubmitOutcome> Submit(std::size_t conn,
                                          const workload::Request& r) {
    return clients_[conn]->Submit(r, r.start_time);
  }
  util::Result<svc::CycleStats> Close() { return clients_[0]->CloseCycle(); }
  util::Result<std::uint64_t> Backlog() {
    auto info = clients_[0]->Status();
    if (!info.ok()) return info.error();
    return info->deferred;
  }
  util::Status Snapshot() {
    auto written = clients_[0]->TriggerSnapshot();
    if (!written.ok()) return written.error();
    return util::Status::Ok();
  }
  svc::ReservationService& service() { return service_; }

 private:
  // Destroyed bottom-up: clients hang up, the server drains, then the
  // service goes.
  svc::ReservationService service_;
  std::unique_ptr<rpc::Server> server_;
  std::vector<std::unique_ptr<rpc::Client>> clients_;
};

/// Replays by calling ReservationService directly, with a span around
/// each public call and a validator pass after every close.
class DirectPath {
 public:
  DirectPath(const Env& env, const core::CostModel& cost_model,
             std::string snapshot_path, SpanLog* spans)
      : service_(env.topology, env.catalog, MakeServiceConfig(nullptr)),
        cost_model_(&cost_model),
        snapshot_path_(std::move(snapshot_path)),
        spans_(spans) {}

  util::Result<svc::SubmitOutcome> Submit(std::size_t /*conn*/,
                                          const workload::Request& r) {
    return service_.Submit(r, r.start_time);
  }
  util::Result<svc::CycleStats> Close() {
    auto stats = Spanned(spans_, "svc.close", [&] { return service_.CloseCycle(); });
    if (!stats.ok() || spans_ == nullptr) return stats;
    // Traced only: the service validates every commit internally; this
    // pass times the same validator on the same committed set, and fails
    // loudly if the commit were ever dirty.
    const core::Schedule schedule = service_.CommittedSchedule();
    const std::vector<workload::Request> requests = service_.CommittedRequests();
    const sim::ValidationReport report =
        Spanned(spans_, "sim.validate", [&] {
          return sim::ValidateSchedule(schedule, requests, *cost_model_);
        });
    if (!report.ok()) {
      return util::Internal("committed schedule fails the validator after close " +
                            std::to_string(stats->cycle));
    }
    return stats;
  }
  util::Result<std::uint64_t> Backlog() { return service_.DeferredCount(); }
  util::Status Snapshot() {
    auto written = WriteSnapshot(service_, snapshot_path_, spans_);
    if (!written.ok()) return written.error();
    return util::Status::Ok();
  }
  svc::ReservationService& service() { return service_; }

 private:
  svc::ReservationService service_;
  const core::CostModel* cost_model_;
  std::string snapshot_path_;
  SpanLog* spans_;
};

// ---- replay ----------------------------------------------------------------

/// One window of a replay, from its first submit to its close's return;
/// the drain after the last window is one more.  Replays of one trace
/// have the same windows, so records line up by index across replays.
struct WindowRecord {
  /// Submit -> ack and ack -> return of the deciding close, seconds;
  /// negative when the window has fewer than kMinWindowSamples.
  double ack_p50 = -1.0;
  double ack_p99 = -1.0;
  double confirm_p50 = -1.0;
  double confirm_p99 = -1.0;
  double wall = 0.0;
  double cpu = 0.0;
};

/// Fills p50/p99 from `samples` when there are enough of them.
void SetQuantiles(const std::vector<double>& samples, double& p50,
                  double& p99) {
  if (samples.size() < kMinWindowSamples) return;
  p50 = util::Percentile(samples, 50.0);
  p99 = util::Percentile(samples, 99.0);
}

struct Replay {
  /// Submit -> ack, per successful submit (seconds).
  std::vector<double> ack;
  std::vector<WindowRecord> windows;
  /// Snapshot trigger -> ack (seconds), in trigger order.
  std::vector<double> snapshot;
  std::vector<svc::CycleStats> closes;
  std::size_t submitted = 0;
  std::size_t spilled = 0;
  std::size_t invalid = 0;
  std::size_t backpressure = 0;
  std::size_t transport_errors = 0;
  std::size_t failed_closes = 0;
  std::size_t failed_snapshots = 0;
  /// First submit to last close return (drain included).
  double wall = 0.0;
  double cpu = 0.0;
  double peak_rss_mb = 0.0;
  // Final service state.
  std::string committed_bytes;
  std::vector<workload::Request> committed_requests;
  std::size_t committed = 0;
  std::size_t deferred_left = 0;
  std::size_t pending_left = 0;
  double final_cost = 0.0;
  bool final_valid = false;

  [[nodiscard]] std::size_t Dropped() const {
    std::size_t n = 0;
    for (const svc::CycleStats& c : closes) {
      n += c.rejected_expired + c.rejected_deferred_full;
    }
    return n;
  }
  [[nodiscard]] std::size_t Attempted() const {
    return submitted + closes.size() + failed_closes + snapshot.size() +
           failed_snapshots;
  }
  /// Transport errors, backpressure or invalid rejections, expired or
  /// deferred-full drops, failed closes or snapshots.
  [[nodiscard]] std::size_t Failed() const {
    return transport_errors + backpressure + invalid + Dropped() +
           failed_closes + failed_snapshots;
  }
  [[nodiscard]] double DecidedPerSecond() const {
    return wall > 0.0 ? static_cast<double>(submitted) / wall : 0.0;
  }
};

/// Per-submitter tallies, folded after the window's threads join.
struct Tally {
  std::size_t spilled = 0;
  std::size_t invalid = 0;
  std::size_t backpressure = 0;
  std::size_t transport_errors = 0;
  std::vector<double> ack;
  /// Ack stamps (seconds since replay start) of this window's submits.
  std::vector<double> acked_at;
};

template <class Path>
Replay RunReplay(const Workload& w, const Env& env, Path& path,
                 const core::CostModel& cost_model) {
  Replay out;
  const double cpu0 = CpuSeconds();
  const double t0 = Now();
  std::vector<double> acked_in_window;

  const auto snapshot = [&] {
    const double start = Now();
    if (path.Snapshot().ok()) {
      out.snapshot.push_back(Now() - start);
    } else {
      ++out.failed_snapshots;
    }
  };
  const auto close = [&](WindowRecord& record) -> bool {
    auto stats = path.Close();
    const double t_close = Now() - t0;
    if (!stats.ok()) {
      std::cerr << "e2ebench: close failed: " << stats.error().message << '\n';
      ++out.failed_closes;
      return false;
    }
    out.closes.push_back(*stats);
    std::vector<double> confirm;
    confirm.reserve(acked_in_window.size());
    for (const double stamp : acked_in_window) confirm.push_back(t_close - stamp);
    SetQuantiles(confirm, record.confirm_p50, record.confirm_p99);
    acked_in_window.clear();
    return true;
  };
  // Stamps a record's wall and CPU seconds since (start, cpu_start).
  const auto finish = [&](WindowRecord& record, double start, double cpu_start) {
    record.wall = Now() - start;
    record.cpu = CpuSeconds() - cpu_start;
    out.windows.push_back(record);
  };

  for (std::size_t wi = 0; wi < env.windows.size(); ++wi) {
    const auto [begin, end] = env.windows[wi];
    WindowRecord record;
    const double window_start = Now();
    const double window_cpu = CpuSeconds();
    // On snapshot_every_close workloads connection 0 snapshots the state
    // the previous close left while the other connections submit.
    const bool overlap = w.snapshot_every_close && wi > 0;
    const std::size_t first = overlap ? 1 : 0;
    const std::size_t submitters = kConnections - first;
    std::vector<Tally> tallies(kConnections);
    std::vector<std::thread> threads;
    threads.reserve(kConnections);
    for (std::size_t p = first; p < kConnections; ++p) {
      threads.emplace_back([&, p] {
        Tally& t = tallies[p];
        for (std::size_t i = begin + (p - first); i < end; i += submitters) {
          const workload::Request& r = env.trace[i];
          const double start = Now();
          auto outcome = path.Submit(p, r);
          const double acked = Now();
          if (!outcome.ok()) {
            ++t.transport_errors;
            continue;
          }
          t.ack.push_back(acked - start);
          t.acked_at.push_back(acked - t0);
          switch (*outcome) {
            case svc::SubmitOutcome::kAccepted: break;
            case svc::SubmitOutcome::kDeferred: ++t.spilled; break;
            case svc::SubmitOutcome::kRejectedInvalid: ++t.invalid; break;
            case svc::SubmitOutcome::kRejectedBackpressure:
              ++t.backpressure;
              break;
          }
        }
      });
    }
    if (overlap) snapshot();
    for (std::thread& t : threads) t.join();
    out.submitted += end - begin;
    std::vector<double> window_ack;
    for (const Tally& t : tallies) {
      window_ack.insert(window_ack.end(), t.ack.begin(), t.ack.end());
      out.spilled += t.spilled;
      out.invalid += t.invalid;
      out.backpressure += t.backpressure;
      out.transport_errors += t.transport_errors;
      out.ack.insert(out.ack.end(), t.ack.begin(), t.ack.end());
      acked_in_window.insert(acked_in_window.end(), t.acked_at.begin(),
                             t.acked_at.end());
    }
    SetQuantiles(window_ack, record.ack_p50, record.ack_p99);
    if (!close(record)) break;
    finish(record, window_start, window_cpu);
  }

  // Drain the deferred backlog: extra closes while it shrinks.
  WindowRecord drain;
  const double drain_start = Now();
  const double drain_cpu = CpuSeconds();
  if (w.snapshot_every_close && out.failed_closes == 0) snapshot();
  if (out.failed_closes == 0) {
    auto backlog = path.Backlog();
    for (std::size_t extra = 0;
         backlog.ok() && *backlog > 0 && extra < kMaxDrainCloses; ++extra) {
      const std::uint64_t before = *backlog;
      if (!close(drain)) break;
      if (w.snapshot_every_close) snapshot();
      backlog = path.Backlog();
      if (backlog.ok() && *backlog >= before) break;
    }
    if (!backlog.ok()) ++out.failed_closes;
  }
  finish(drain, drain_start, drain_cpu);
  out.wall = Now() - t0;
  out.cpu = CpuSeconds() - cpu0;
  out.peak_rss_mb = PeakRssMb();
  // Checkpoints of the final state; the last is restored by the checks.
  if (!w.snapshot_every_close) {
    for (std::size_t i = 0; i < kCheckpoints; ++i) snapshot();
  }

  svc::ReservationService& service = path.service();
  const core::Schedule schedule = service.CommittedSchedule();
  out.committed_requests = service.CommittedRequests();
  out.committed_bytes = io::ScheduleToBinary(schedule);
  out.committed = out.committed_requests.size();
  out.deferred_left = service.DeferredCount();
  out.pending_left = service.PendingCount();
  out.final_cost = out.closes.empty() ? 0.0 : out.closes.back().final_cost;
  out.final_valid =
      sim::ValidateSchedule(schedule, out.committed_requests, cost_model).ok();
  return out;
}

// ---- checks ------------------------------------------------------------------

/// Collects failed self-checks; any failure makes the run exit non-zero.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  void Report() const {
    for (const std::string& f : failures_) {
      std::cerr << "e2ebench: CHECK FAILED: " << f << '\n';
    }
  }

 private:
  std::vector<std::string> failures_;
};

/// Index by index, the best (lowest) value over the replays of one run:
/// a window that the shared host slowed down in one replay is taken from
/// another.  `size` gives a replay's index count; `get` returns a
/// negative value where an index has no sample.
template <class Size, class Get>
std::vector<double> BestPerIndex(const std::vector<Replay>& runs, Size size,
                                 Get get) {
  std::size_t n = size(runs.front());
  for (const Replay& r : runs) n = std::min(n, size(r));
  std::vector<double> best;
  for (std::size_t i = 0; i < n; ++i) {
    double b = -1.0;
    for (const Replay& r : runs) {
      const double v = get(r, i);
      if (v >= 0.0 && (b < 0.0 || v < b)) b = v;
    }
    if (b >= 0.0) best.push_back(b);
  }
  return best;
}

/// Outputs every path must get right, whatever the timing.
void CheckReplay(const Workload& w, const Replay& r, const std::string& label,
                 Checks& checks) {
  checks.Expect(r.failed_closes == 0, label + ": every close succeeded");
  checks.Expect(r.final_valid,
                label + ": final committed schedule is validator-clean");
  checks.Expect(r.pending_left == 0, label + ": no open intake after the drain");
  checks.Expect(r.committed + r.deferred_left + r.Dropped() + r.invalid +
                        r.backpressure + r.transport_errors ==
                    r.submitted,
                label + ": committed + deferred + rejected == submitted");
  if (w.snapshot_every_close) {
    checks.Expect(r.snapshot.size() == r.closes.size(),
                  label + ": one snapshot per close");
  }
}

/// Restores the last snapshot into a fresh service and compares bytes.
void CheckRestore(const Env& env, const Replay& r, const std::string& path,
                  Checks& checks) {
  auto bytes = io::ReadFile(path);
  checks.Expect(bytes.ok(), "snapshot file readable");
  if (!bytes.ok()) return;
  auto snap = svc::SnapshotFromBytes(*bytes);
  checks.Expect(snap.ok(), "snapshot decodes");
  if (!snap.ok()) return;
  svc::ReservationService fresh(env.topology, env.catalog,
                                MakeServiceConfig(nullptr));
  const util::Status restored = fresh.Restore(*snap);
  checks.Expect(restored.ok(), "snapshot restores");
  if (!restored.ok()) return;
  checks.Expect(io::ScheduleToBinary(fresh.CommittedSchedule()) ==
                    r.committed_bytes,
                "restored snapshot reproduces the committed bytes");
}

/// What places a run in its regime: SORP victims, and SORP's seconds
/// as a share of the solver time around them.
struct RegimeEvidence {
  std::string source;
  std::uint64_t victims = 0;
  double sorp_s = 0.0;
  double total_s = 0.0;
};

/// From a replay with the registry attached: SORP within the closes.
RegimeEvidence FromReplay(obs::MetricsRegistry& registry, const Replay& r) {
  RegimeEvidence e;
  e.source = "replay closes";
  e.victims = registry.GetCounter("sorp.victims_rescheduled").value();
  e.sorp_s = registry.GetTimer("incremental_solve/sorp").Snap().sum;
  for (const svc::CycleStats& c : r.closes) e.total_s += c.close_seconds;
  return e;
}

/// One batch solve of the committed set with the service's solver
/// settings.  Untraced runs use it instead of a second, instrumented
/// replay, which would cost as much as the measured one.
RegimeEvidence BatchProbe(const Env& env,
                          const std::vector<workload::Request>& requests) {
  obs::MetricsRegistry registry;
  core::SchedulerOptions options = MakeServiceConfig(nullptr).scheduler;
  options.metrics = &registry;
  const core::VorScheduler scheduler(env.topology, env.catalog, options);
  RegimeEvidence e;
  e.source = "batch solve of the committed set";
  const auto out = scheduler.Solve(requests);
  if (!out.ok()) return e;
  e.victims = out->sorp.victims_rescheduled;
  e.sorp_s = registry.GetTimer("solve/sorp").Snap().sum;
  e.total_s = registry.GetTimer("solve").Snap().sum;
  return e;
}

/// Keeps each workload in the regime it was chosen for.
void CheckRegime(const Workload& w, const RegimeEvidence& e, const Replay& r,
                 Checks& checks) {
  const std::string from = " (" + e.source + ")";
  if (w.regime == Regime::kSorpBound) {
    checks.Expect(e.victims > 0, "tight regime: SORP reschedules victims" + from);
    checks.Expect(e.sorp_s >= 0.5 * e.total_s,
                  "tight regime: SORP takes at least half the time, " +
                      std::to_string(e.sorp_s) + " of " +
                      std::to_string(e.total_s) + " s" + from);
  } else {
    checks.Expect(e.victims == 0, "loose regime: SORP reschedules no victims, " +
                                      std::to_string(e.victims) + from);
    checks.Expect(r.backpressure == 0 && r.spilled == 0,
                  "loose regime: no intake backpressure or spill");
  }
}

// ---- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(30) << m.name << ' '
              << std::setprecision(8) << m.value << ' ' << m.unit << '\n';
  }
  std::ostringstream line;
  line << std::setprecision(12) << "{\"correct\": "
       << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line << ", ";
    line << '"' << metrics[i].name << "\": {\"value\": " << metrics[i].value
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
}

int Usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 --scratch DIR\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;
};

std::optional<Args> Parse(int argc, char** argv, std::string& error) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = flag + " needs a value";
      return std::nullopt;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (w.name == value) args.workload = &w;
        }
        if (args.workload == nullptr) {
          error = "unknown workload " + value;
          return std::nullopt;
        }
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--scratch") {
        args.scratch = value;
      } else {
        error = "unknown flag " + flag;
        return std::nullopt;
      }
    } catch (const std::exception&) {
      error = flag + " expects a number, got " + value;
      return std::nullopt;
    }
  }
  if (args.workload == nullptr) error = "--workload is required";
  if (args.scratch.empty()) error = "--scratch is required";
  if (!error.empty()) return std::nullopt;
  return args;
}

int Run(const Args& args) {
  const Workload& w = *args.workload;
  std::filesystem::create_directories(args.scratch);
  const std::string snapshot_path = args.scratch + "/snapshot.vorb";
  SpanLog setup_spans;

  // Set-up, several times: scenario + trace generation, decode, service
  // and server construction, server start and client connects.  The last
  // one serves the first replay.
  const double run_start = Now();
  std::vector<double> setup_samples;
  std::optional<Env> env;
  std::unique_ptr<WirePath> wire;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    wire.reset();
    env.reset();
    const double t0 = Now();
    auto built = BuildEnv(w, args.seed, &setup_spans);
    if (!built.ok()) {
      std::cerr << "e2ebench: " << built.error().message << '\n';
      return 1;
    }
    env.emplace(std::move(*built));
    wire = std::make_unique<WirePath>(*env, nullptr, snapshot_path);
    if (auto s = wire->Start(); !s.ok()) {
      std::cerr << "e2ebench: server start: " << s.error().message << '\n';
      return 1;
    }
    setup_samples.push_back(Now() - t0);
  }
  LogPhase("setup", run_start);
  const net::Router router(env->topology);
  const core::CostModel cost_model(env->topology, router, env->catalog);

  Checks checks;
  std::size_t peak_window = 0;
  for (const auto& [begin, end] : env->windows) {
    peak_window = std::max(peak_window, end - begin);
  }
  const std::size_t bound = IntakeBound(MakeServiceConfig(nullptr));
  std::cout << "e2ebench workload=" << w.name << " seed=" << args.seed
            << " trace=" << (args.trace ? 1 : 0) << " requests="
            << env->trace.size() << " windows=" << env->windows.size()
            << " peak_window=" << peak_window << " intake_bound=" << bound
            << '\n';
  checks.Expect(peak_window <= bound,
                "peak window " + std::to_string(peak_window) +
                    " fits the intake bound " + std::to_string(bound));

  // Untraced wire replays: the first on the set-up stack, then fresh
  // stacks until --seconds of replay and kMinReplays replays are done.
  // Traced runs make one.
  std::vector<Replay> wire_runs;
  double measured = 0.0;
  do {
    if (!wire) {
      wire = std::make_unique<WirePath>(*env, nullptr, snapshot_path);
      if (auto s = wire->Start(); !s.ok()) {
        std::cerr << "e2ebench: server start: " << s.error().message << '\n';
        return 1;
      }
    }
    wire_runs.push_back(RunReplay(w, *env, *wire, cost_model));
    wire.reset();
    measured += wire_runs.back().wall;
    CheckReplay(w, wire_runs.back(),
                "wire replay " + std::to_string(wire_runs.size()), checks);
    if (wire_runs.size() == 1) {
      CheckRestore(*env, wire_runs.back(), snapshot_path, checks);
    }
  } while (!args.trace &&
           (measured < args.seconds || wire_runs.size() < kMinReplays));
  LogPhase("wire", run_start);
  const Replay& first = wire_runs.front();
  for (const Replay& r : wire_runs) {
    checks.Expect(r.committed_bytes == first.committed_bytes,
                  "every wire replay commits the same bytes");
  }

  obs::MetricsRegistry wire_registry;
  std::optional<Replay> traced;
  SpanLog direct_spans;
  Replay direct;
  if (!args.trace) {
    CheckRegime(w, BatchProbe(*env, first.committed_requests), first, checks);
    LogPhase("regime probe", run_start);
  } else {
    // Traced wire replay: registry on the server and the service.
    {
      WirePath path(*env, &wire_registry, snapshot_path);
      if (auto s = path.Start(); !s.ok()) {
        std::cerr << "e2ebench: server start: " << s.error().message << '\n';
        return 1;
      }
      traced.emplace(RunReplay(w, *env, path, cost_model));
    }
    CheckReplay(w, *traced, "traced wire replay", checks);
    checks.Expect(traced->committed_bytes == first.committed_bytes,
                  "traced wire replay commits the same bytes");
    CheckRegime(w, FromReplay(wire_registry, *traced), *traced, checks);
    LogPhase("traced wire", run_start);

    // In-process replay of the same windows, spanned: the direct cost of
    // each layer, and the byte-identity reference for the wire.
    {
      DirectPath path(*env, cost_model, args.scratch + "/direct-snapshot.vorb",
                      &direct_spans);
      direct = RunReplay(w, *env, path, cost_model);
    }
    CheckReplay(w, direct, "in-process replay", checks);
    checks.Expect(direct.committed_bytes == first.committed_bytes,
                  "wire schedule is byte-identical to the in-process replay");
    LogPhase("in-process", run_start);
  }

  const std::size_t attempted = first.Attempted();
  const std::size_t failed = first.Failed();
  std::cout << "seed=" << args.seed << " schedule_digest=0x" << std::hex
            << Fnv1a(first.committed_bytes) << std::dec
            << " committed=" << first.committed
            << " deferred=" << first.deferred_left
            << " dropped=" << first.Dropped() << " closes="
            << first.closes.size() << " replays=" << wire_runs.size()
            << " failed_ratio="
            << static_cast<double>(failed) / static_cast<double>(attempted)
            << '\n';

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Best of the replays per window, then across windows: acks take the
    // first quartile, because phases of several seconds in which every
    // RPC takes 3x as long can cover half of the windows even so.
    // Confirms take the mean, because close time differs up to 20x
    // between trough and peak windows, so one order statistic over
    // windows would jump between them.
    const auto windows = [](const Replay& r) { return r.windows.size(); };
    const auto best = [&](double WindowRecord::*field) {
      return BestPerIndex(wire_runs, windows,
                          [field](const Replay& r, std::size_t i) {
                            return r.windows[i].*field;
                          });
    };
    const std::vector<double> snapshots = BestPerIndex(
        wire_runs, [](const Replay& r) { return r.snapshot.size(); },
        [](const Replay& r, std::size_t i) { return r.snapshot[i]; });
    metrics = {
        {"setup_s", Median(setup_samples), "s"},
        {"ack_p50_us", LowerQuartile(best(&WindowRecord::ack_p50)) * 1e6, "us"},
        {"confirm_p50_s", Mean(best(&WindowRecord::confirm_p50)), "s"},
        {"confirm_p99_s", Mean(best(&WindowRecord::confirm_p99)), "s"},
        {"decided_per_s",
         static_cast<double>(first.submitted) / Sum(best(&WindowRecord::wall)),
         "1/s"},
        {"cpu_s", Sum(best(&WindowRecord::cpu)), "s"},
        {"peak_rss_mb", first.peak_rss_mb, "MB"},
        {"cost_per_request_usd",
         first.final_cost / static_cast<double>(std::max<std::size_t>(
                                first.committed, 1)),
         "usd"},
        {"committed_ratio",
         static_cast<double>(first.committed) /
             static_cast<double>(first.submitted),
         "ratio"},
        {"snapshot_p50_ms", Median(snapshots) * 1e3, "ms"},
    };
  } else {
    obs::MetricsRegistry& reg = wire_registry;
    const auto counter = [&reg](const char* name) {
      return static_cast<double>(reg.GetCounter(name).value());
    };
    const auto timer = [&reg](const char* name) {
      return reg.GetTimer(name).Snap();
    };
    std::vector<double> close_s;
    double admission_s = 0.0;
    double attempts = 0.0;
    double deferred_out = 0.0;
    double expired = 0.0;
    for (const svc::CycleStats& c : traced->closes) {
      close_s.push_back(c.close_seconds);
      admission_s += c.close_seconds - c.solve_seconds;
      attempts += static_cast<double>(c.solve_attempts);
      deferred_out += static_cast<double>(c.deferred_out);
      expired += static_cast<double>(c.rejected_expired +
                                     c.rejected_deferred_full);
    }
    const double incremental_s = timer("incremental_solve").sum;
    const obs::Timer::Snapshot sorp = timer("incremental_solve/sorp");
    const obs::Timer::Snapshot shard = timer("sorp.shard.seconds");
    const double hits = counter("sorp.memo.hits");
    const double lookups = hits + counter("sorp.memo.misses");
    const double wire_ack_p50 = util::Percentile(first.ack, 50.0);
    std::vector<double> wire_ack_p99;
    for (const WindowRecord& r : first.windows) {
      if (r.ack_p99 >= 0.0) wire_ack_p99.push_back(r.ack_p99);
    }
    const double direct_submit_p50 = util::Percentile(direct.ack, 50.0);
    const std::vector<double> snapshot_bytes =
        direct_spans.Samples("io.snapshot_bytes");
    metrics = {
        {"rpc.server_submit_mean_us",
         timer("rpc.server.submit_seconds").mean() * 1e6, "us"},
        {"rpc.wire_overhead_us", (wire_ack_p50 - direct_submit_p50) * 1e6,
         "us"},
        {"rpc.ack_p99_us", LowerQuartile(wire_ack_p99) * 1e6, "us"},
        {"svc.submit_p50_us", direct_submit_p50 * 1e6, "us"},
        {"svc.accepted", counter("svc.submit.accepted"), "count"},
        {"svc.backpressured", counter("svc.submit.rejected_backpressure"),
         "count"},
        {"svc.queue_wait_mean_ms", timer("svc.submit.queue_wait").mean() * 1e3,
         "ms"},
        {"svc.close_s", Sum(close_s), "s"},
        {"svc.close_p50_s", Median(close_s), "s"},
        {"svc.close_max_s",
         close_s.empty() ? 0.0 : *std::max_element(close_s.begin(),
                                                   close_s.end()),
         "s"},
        {"svc.admission_s", admission_s, "s"},
        {"svc.solve_attempts", attempts, "count"},
        {"svc.deferred_out", deferred_out, "count"},
        {"svc.expired", expired, "count"},
        {"core.incremental_s", incremental_s, "s"},
        {"core.phase1_s", incremental_s - sorp.sum, "s"},
        {"core.files_rescheduled", counter("incremental.files_rescheduled"),
         "count"},
        {"core.files_carried_over", counter("incremental.files_carried_over"),
         "count"},
        {"sorp.solve_s", sorp.sum, "s"},
        {"sorp.rounds", counter("sorp.rounds"), "count"},
        {"sorp.victims", counter("sorp.victims_rescheduled"), "count"},
        {"sorp.evaluations", counter("sorp.candidates_evaluated"), "count"},
        {"sorp.evaluation_mean_us", timer("sorp.evaluation").mean() * 1e6,
         "us"},
        {"sorp.memo_lookups", lookups, "count"},
        {"sorp.memo_hit_ratio", lookups > 0.0 ? hits / lookups : 0.0, "ratio"},
        {"sorp.shards",
         sorp.count > 0 ? counter("sorp.regions.shards") /
                              static_cast<double>(sorp.count)
                        : 0.0,
         "count"},
        {"sorp.shard_imbalance",
         shard.mean() > 0.0 ? shard.max / shard.mean() : 0.0, "ratio"},
        {"sorp.reconcile_s", timer("incremental_solve/sorp/residual").sum, "s"},
        {"storage.usage_rebuilds", counter("sorp.usage_rebuilds"), "count"},
        {"sim.validate_s", Sum(direct_spans.Samples("sim.validate")), "s"},
        {"svc.snapshot_s", Sum(direct_spans.Samples("svc.snapshot")), "s"},
        {"io.snapshot_encode_s",
         Sum(direct_spans.Samples("io.snapshot_encode")), "s"},
        {"io.snapshot_write_s", Sum(direct_spans.Samples("io.snapshot_write")),
         "s"},
        {"io.snapshot_bytes",
         snapshot_bytes.empty() ? 0.0 : snapshot_bytes.back(), "bytes"},
        {"io.trace_decode_s", Median(setup_spans.Samples("io.trace_decode")),
         "s"},
        {"util.effective_parallelism", first.cpu / first.wall, "ratio"},
        {"trace_overhead_ratio",
         traced->DecidedPerSecond() / first.DecidedPerSecond(), "ratio"},
    };
  }

  LogPhase("done", run_start);
  std::error_code ignored;
  std::filesystem::remove(snapshot_path, ignored);
  std::filesystem::remove(args.scratch + "/direct-snapshot.vorb", ignored);
  checks.Report();
  PrintResult(checks.ok(), attempted, failed, metrics);
  return checks.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const std::optional<Args> args = Parse(argc, argv, error);
  if (!args) return Usage(error);
  return Run(*args);
}
