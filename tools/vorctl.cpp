// vorctl — command-line front end to the VOR scheduling library.
//
//   vorctl gen-scenario [--nrate N] [--srate N] [--capacity-gb N]
//                       [--alpha A] [--storages N] [--hubs N] [--users N]
//                       [--catalog N] [--seed N] [--evening]
//                       [--out scenario.json] [--trace-out trace.csv]
//       Generates a self-contained scenario document (topology + catalog
//       + one cycle of reservations), optionally exporting the request
//       trace as CSV.  --hubs widens the warehouse-adjacent tier, which
//       also sets the natural region count for --regions auto.
//
//   vorctl gen-trace <scenario.json> --out trace.bin [--users N] ...
//       Streams a million-user-scale workload (Zipf titles, region-skewed
//       placement, diurnal curve, flash crowd) into a chunked vor-bin
//       trace without ever materializing it; see workload/scale.hpp.
//
//   vorctl solve <scenario.json> [--heat m1|m2|m3|m4] [--out schedule.json]
//                [--trace trace.csv] [--regions N|auto]
//       Runs the two-phase scheduler and prints the schedule report.
//       --trace substitutes a CSV reservation log for the scenario's
//       requests; --regions shards SORP by topology region (byte-identical
//       schedule).  When the topology declares bandwidth or storage I/O
//       caps the scheduler honours them and a bandwidth line reports
//       forced requests and residual overloads.
//
//   vorctl validate <scenario.json> <schedule.json>
//       Re-validates a schedule against its scenario: service coverage,
//       anchoring, capacity; exits non-zero on violations.
//
//   vorctl simulate <scenario.json> <schedule.json>
//       Replays a schedule through the discrete-event simulator and
//       prints storage/link telemetry.
//
//   vorctl report <scenario.json> <schedule.json>
//       Prints the operator report (cost split, cache hit ratio, hops
//       histogram, per-storage usage) for an existing schedule.
//
//   vorctl diff <scenario.json> <before.json> <after.json>
//       Shows what changed between two schedules of the same cycle:
//       moved/extended copies, retargeted services, per-file cost deltas.
//
//   vorctl convert <in> <out>
//       Translates between the text formats (CSV trace, JSON schedule /
//       snapshot / requests) and the "vor-bin/1" binary container,
//       sniffing the input format by magic/header/kind.
//
//   vorctl serve <scenario.json> --cycle SECS [--trace FILE]
//                [--producers N] [--shards N] [--threads N]
//                [--snapshot FILE] [--clock-ms MS]
//                [--out FILE] [--metrics-out FILE] [--binary]
//                [--listen HOST:PORT] [--port-file FILE] [--connections N]
//       Replays the request trace through the online ReservationService:
//       requests are partitioned into virtual-time windows of --cycle
//       seconds and each non-empty window is submitted by --producers
//       concurrent threads before the cycle closes (an empty window
//       closes nothing).  A vor-bin --trace is streamed chunk by chunk
//       (memory stays O(window), not O(trace)); CSV is materialized and
//       sorted first.  Either format commits a byte-identical schedule.
//       The committed schedule is byte-identical at any producer count.
//       --snapshot names a "vor-svc/1" state file: restored at startup
//       when it exists (the replay resumes at the snapshot's cycle) and
//       rewritten at exit.
//       --clock-ms additionally runs the background wall-clock cycle
//       timer during the replay (soak mode for race detectors; cycle
//       boundaries then depend on timing).
//       --listen HOST:PORT serves reservations over the "vor-rpc/1"
//       socket protocol instead of replaying a trace: remote clients
//       submit requests, close cycles, query status, trigger snapshots,
//       and shut the server down (see docs/FORMATS.md).  Port 0 picks an
//       ephemeral port; --port-file writes the resolved port for
//       scripts.  SIGINT/SIGTERM (and a client kShutdown) stop the
//       server gracefully: the cycle clock is stopped and the final
//       --out/--snapshot/--metrics-out files are still written.
//
//   vorctl load --connect HOST:PORT[,HOST:PORT...] --trace FILE
//               --cycle SECS [--connections N] [--no-drain] [--shutdown]
//               [--metrics-out FILE]
//       Concurrent load generator: streams the trace to a serving vorctl
//       over N connections in virtual-time windows of --cycle seconds
//       (connection p submits indices p, p+N, ...), closing the server's
//       cycle after each non-empty window — the committed schedule on the
//       server is byte-identical to `vorctl serve --trace` of the same
//       file at any connection count.  Reports submit->ack and
//       submit->commit latency percentiles; a comma-separated --connect
//       list enables sticky-host failover.
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baseline/network_only.hpp"
#include "core/bounds.hpp"
#include "core/diff.hpp"
#include "core/report.hpp"
#include "core/scheduler.hpp"
#include "io/binary.hpp"
#include "io/serialize.hpp"
#include "obs/metrics.hpp"
#include "rpc/load.hpp"
#include "rpc/server.hpp"
#include "rpc/socket.hpp"
#include "sim/playback_sim.hpp"
#include "sim/validator.hpp"
#include "storage/load.hpp"
#include "svc/reservation_service.hpp"
#include "svc/snapshot.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/scale.hpp"
#include "workload/scenario.hpp"
#include "workload/trace.hpp"
#include "workload/trace_stream.hpp"

namespace {

using namespace vor;

/// Bad command-line input; caught in main() and reported as exit code 1.
struct UsageError {
  std::string message;
};

/// Set by SIGINT/SIGTERM in the long-running serve modes (--clock-ms
/// soak, --listen).  The serve loops poll it and fall through to the
/// normal exit path, so the cycle clock is stopped and the final
/// --out/--snapshot/--metrics-out files are still written on ^C.
volatile std::sig_atomic_t g_stop_signal = 0;

extern "C" void HandleStopSignal(int) { g_stop_signal = 1; }

void InstallStopHandlers() {
  g_stop_signal = 0;
  (void)std::signal(SIGINT, HandleStopSignal);
  (void)std::signal(SIGTERM, HandleStopSignal);
}

/// "--key value" and bare "--flag" arguments after the subcommand.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  [[nodiscard]] double Number(const std::string& key, double fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    try {
      std::size_t consumed = 0;
      const double v = std::stod(it->second, &consumed);
      // stod accepts "nan" and "inf"; no flag means either.
      if (consumed != it->second.size() || !std::isfinite(v)) {
        throw std::invalid_argument(key);
      }
      return v;
    } catch (const std::exception&) {
      throw UsageError{"--" + key + " expects a finite number, got '" +
                       it->second + "'"};
    }
  }
  /// Exact non-negative integer flags (seeds, counts, thread numbers).
  /// Unlike Number + static_cast, magnitudes like 1e300 or 2^64 are a
  /// usage error instead of an undefined double→integer conversion.
  [[nodiscard]] std::size_t Count(const std::string& key,
                                  std::size_t fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    std::uint64_t v = 0;
    const char* first = it->second.data();
    const char* last = first + it->second.size();
    const auto [ptr, ec] = std::from_chars(first, last, v);
    if (ec != std::errc{} || ptr != last) {
      throw UsageError{"--" + key + " expects a non-negative integer, got '" +
                       it->second + "'"};
    }
    return static_cast<std::size_t>(v);
  }
  [[nodiscard]] std::string Str(const std::string& key,
                                const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] bool Flag(const std::string& key) const {
    return options.count(key) > 0;
  }
};

Args ParseArgs(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        args.options[key] = argv[++i];
      } else {
        args.options[key] = "";
      }
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

int Fail(const std::string& message) {
  std::cerr << "vorctl: " << message << '\n';
  return 1;
}

/// The per-close table of `serve` and `load`.  `dropped` counts both drop
/// causes: a request deferred too often, and a push-back that found the
/// deferred set full.
void PrintCycleTable(const std::vector<svc::CycleStats>& closes) {
  util::Table table({"cycle", "drained", "admitted", "deferred", "dropped",
                     "tries", "solve s", "cost $"});
  for (const svc::CycleStats& s : closes) {
    table.AddRow({std::to_string(s.cycle), std::to_string(s.drained),
                  std::to_string(s.admitted), std::to_string(s.deferred_out),
                  std::to_string(s.rejected_expired +
                                 s.rejected_deferred_full),
                  std::to_string(s.solve_attempts),
                  util::Table::Num(s.solve_seconds, 3),
                  util::Table::Num(s.final_cost, 2)});
  }
  table.PrintPretty(std::cout);
}

util::Result<workload::Scenario> LoadScenario(const std::string& path) {
  auto text = io::ReadFile(path);
  if (!text.ok()) return text.error();
  auto json = util::Json::Parse(*text);
  if (!json.ok()) return json.error();
  return io::ScenarioFromJson(*json);
}

/// Accepts either the JSON schedule document or its vor-bin twin.
util::Result<core::Schedule> LoadSchedule(const std::string& path) {
  auto text = io::ReadFile(path);
  if (!text.ok()) return text.error();
  if (io::LooksBinary(*text)) return io::ScheduleFromBinary(*text);
  auto json = util::Json::Parse(*text);
  if (!json.ok()) return json.error();
  return io::ScheduleFromJson(*json);
}

/// --regions N|auto: SORP region sharding.  "auto" (or 0) = one shard per
/// route-closed neighborhood cluster; 1 (default) = the monolithic loop;
/// N >= 2 coalesces the natural clusters to at most N.
std::size_t ParseRegions(const Args& args) {
  if (args.Str("regions", "") == "auto") return 0;
  return args.Count("regions", 1);
}

std::optional<core::HeatMetric> ParseHeat(const std::string& name) {
  if (name == "m1") return core::HeatMetric::kImprovedLength;
  if (name == "m2") return core::HeatMetric::kLengthPerCost;
  if (name == "m3") return core::HeatMetric::kTimeSpace;
  if (name == "m4") return core::HeatMetric::kTimeSpacePerCost;
  return std::nullopt;
}

int CmdGenScenario(const Args& args) {
  workload::ScenarioParams params;
  params.nrate_per_gb = args.Number("nrate", params.nrate_per_gb);
  params.srate_per_gb_hour = args.Number("srate", params.srate_per_gb_hour);
  params.is_capacity = util::GB(args.Number("capacity-gb", 5.0));
  params.zipf_alpha = args.Number("alpha", params.zipf_alpha);
  params.storage_count = args.Count("storages", 19);
  params.hub_count = args.Count("hubs", 0);
  params.users_per_neighborhood = args.Count("users", 10);
  params.catalog_size = args.Count("catalog", 500);
  params.seed = args.Count("seed", 1997);
  if (args.Flag("evening")) {
    params.start_profile = workload::StartTimeProfile::kEveningPeak;
  }
  if (const util::Status s = workload::ValidateScenarioParams(params);
      !s.ok()) {
    return Fail(s.error().message);
  }

  const workload::Scenario scenario = workload::MakeScenario(params);
  // The checks solve runs on load, so a negative rate or capacity fails
  // here instead of in a scenario file solve refuses.
  if (const util::Status s = scenario.topology.Validate(); !s.ok()) {
    return Fail(s.error().message);
  }
  const std::string trace_out = args.Str("trace-out", "");
  if (!trace_out.empty()) {
    std::string trace_text;
    if (args.Flag("binary")) {
      // Binary traces are stored in canonical replay order so they can
      // be streamed without a sort.
      std::vector<workload::Request> sorted = scenario.requests;
      workload::SortForReplay(sorted);
      trace_text = io::TraceToBinary(sorted);
    } else {
      trace_text = workload::RequestsToCsv(scenario.requests);
    }
    if (const util::Status s = io::WriteFile(trace_out, trace_text); !s.ok()) {
      return Fail(s.error().message);
    }
    std::cout << "wrote " << trace_out << " (" << scenario.requests.size()
              << " requests)\n";
  }
  const std::string text = io::ScenarioToJson(scenario).Dump(2);
  const std::string out = args.Str("out", "");
  if (out.empty()) {
    std::cout << text << '\n';
  } else {
    if (const util::Status s = io::WriteFile(out, text); !s.ok()) {
      return Fail(s.error().message);
    }
    std::cout << "wrote " << out << " (" << scenario.requests.size()
              << " requests, " << scenario.catalog.size() << " titles, "
              << scenario.topology.node_count() << " nodes)\n";
  }
  return 0;
}

// vorctl gen-trace <scenario.json> --out trace.bin — streams a
// million-user-scale synthetic workload (Zipf popularity, region-skewed
// placement, diurnal curve, optional flash crowd) straight into a chunked
// vor-bin trace.  Memory stays O(time bucket), never O(requests), so the
// request count is bounded by disk, not RAM; the output replays through
// `solve --trace` / `serve --trace` as a stream.
int CmdGenTrace(const Args& args) {
  if (args.positional.empty()) return Fail("gen-trace needs a scenario file");
  auto scenario = LoadScenario(args.positional[0]);
  if (!scenario.ok()) return Fail(scenario.error().message);
  const std::string out = args.Str("out", "");
  if (out.empty()) return Fail("gen-trace needs --out FILE");

  workload::ScaleParams params;
  params.users = args.Count("users", params.users);
  params.requests_per_user =
      args.Count("requests-per-user", params.requests_per_user);
  params.zipf_alpha = args.Number("alpha", params.zipf_alpha);
  params.region_affinity = args.Number("affinity", params.region_affinity);
  params.diurnal_depth = args.Number("diurnal", params.diurnal_depth);
  params.flash_fraction = args.Number("flash-fraction", 0.0);
  params.flash_start = util::Seconds{args.Number("flash-start", 0.0)};
  params.flash_length = util::Seconds{args.Number("flash-length", 0.0)};
  params.cycle_length =
      util::Seconds{args.Number("cycle-length", params.cycle_length.value())};
  params.buckets = args.Count("buckets", params.buckets);
  params.seed = args.Count("seed", params.seed);
  if (params.users == 0) return Fail("--users must be >= 1");
  if (!(params.zipf_alpha >= 0.0 && params.zipf_alpha <= 1.0)) {
    return Fail("--alpha must be in [0, 1]");
  }

  std::ofstream file(out, std::ios::binary | std::ios::trunc);
  if (!file) return Fail("cannot open " + out);
  const workload::ScaleTraceInfo info = workload::WriteScaleTrace(
      scenario->topology, scenario->catalog, params,
      [&file](const char* data, std::size_t n) {
        file.write(data, static_cast<std::streamsize>(n));
      });
  file.close();
  if (!file) return Fail("write failed for " + out);
  std::cout << "wrote " << out << " (" << info.total_requests
            << " requests, " << info.flash_requests << " flash, "
            << info.regions << " regions)\n";
  return 0;
}

int CmdSolve(const Args& args) {
  if (args.positional.empty()) return Fail("solve needs a scenario file");
  auto scenario = LoadScenario(args.positional[0]);
  if (!scenario.ok()) return Fail(scenario.error().message);

  // Optional trace (CSV or vor-bin, sniffed by magic) replaces the
  // scenario's synthetic requests, normalized to canonical replay order.
  const std::string trace_path = args.Str("trace", "");
  if (!trace_path.empty()) {
    auto stream = workload::TraceStream::OpenFile(trace_path);
    if (!stream.ok()) return Fail(stream.error().message);
    std::vector<workload::Request> trace;
    workload::Request r;
    while (true) {
      auto more = stream->Next(r);
      if (!more.ok()) return Fail(more.error().message);
      if (!*more) break;
      trace.push_back(r);
    }
    if (const util::Status s = workload::ValidateTrace(
            trace, scenario->topology, scenario->catalog);
        !s.ok()) {
      return Fail(s.error().message);
    }
    scenario->requests = std::move(trace);
  }

  core::SchedulerOptions options;
  const std::string heat = args.Str("heat", "m4");
  const auto metric = ParseHeat(heat);
  if (!metric) return Fail("unknown heat metric '" + heat + "'");
  options.heat = *metric;
  // --threads N: worker threads shared by phase 1 and SORP evaluations
  // (1 = serial, 0 = one per hardware thread).  The schedule is
  // byte-identical at any setting.
  options.parallel.threads = args.Count("threads", 1);
  // --regions N|auto: shard SORP by topology region and resolve the
  // shards concurrently.  Byte-identical schedule at any setting.
  options.sorp_regions = ParseRegions(args);

  // --metrics-out FILE: attach a registry and export phase timings and
  // solver counters as JSON after the solve.
  const std::string metrics_out = args.Str("metrics-out", "");
  obs::MetricsRegistry registry;
  if (!metrics_out.empty()) options.metrics = &registry;

  const core::VorScheduler scheduler(scenario->topology, scenario->catalog,
                                     options);
  auto result = scheduler.Solve(scenario->requests);
  if (!result.ok()) return Fail(result.error().message);
  const core::Schedule& schedule = result->schedule;
  if (storage::HasStreamCaps(scenario->topology)) {
    const storage::StreamReport streams = storage::MeasureStreams(
        schedule, scenario->topology, scenario->catalog);
    std::cout << "bandwidth: " << streams.forced_requests
              << " forced request(s), " << streams.overloaded_links
              << " overloaded link(s), worst utilization "
              << streams.worst_utilization << "\n";
  }

  const net::Router router(scenario->topology);
  const core::CostModel cm(scenario->topology, router, scenario->catalog,
                           options.pricing);
  const core::ScheduleReport report =
      core::BuildReport(schedule, scenario->requests, cm);
  std::cout << report.ToText(scenario->topology);
  std::cout << "phase-1 cost $" << result->phase1_cost.value()
            << ", overflows resolved with "
            << result->sorp.victims_rescheduled << " victim reschedule(s)\n";
  const double direct =
      cm.TotalCost(baseline::NetworkOnlySchedule(scenario->requests, cm))
          .value();
  const double bound =
      core::UnavoidableNetworkLowerBound(scenario->requests, cm).total();
  std::cout << "network-only baseline would cost $" << direct
            << "; unavoidable lower bound $" << bound << '\n';

  const std::string out = args.Str("out", "");
  if (!out.empty()) {
    const std::string text = args.Flag("binary")
                                 ? io::ScheduleToBinary(schedule)
                                 : io::ToJson(schedule).Dump(2);
    if (const util::Status s = io::WriteFile(out, text); !s.ok()) {
      return Fail(s.error().message);
    }
    std::cout << "wrote " << out << '\n';
  }

  if (!metrics_out.empty()) {
    util::Json doc = registry.ToJson();
    doc.as_object()["version"] = "vor-metrics/1";
    if (const util::Status s = io::WriteFile(metrics_out, doc.Dump(2));
        !s.ok()) {
      return Fail(s.error().message);
    }
    std::cout << "wrote " << metrics_out << '\n';
  }
  return 0;
}

int CmdDiff(const Args& args) {
  if (args.positional.size() < 3) {
    return Fail("diff needs <scenario.json> <before.json> <after.json>");
  }
  auto scenario = LoadScenario(args.positional[0]);
  if (!scenario.ok()) return Fail(scenario.error().message);
  auto before = LoadSchedule(args.positional[1]);
  if (!before.ok()) return Fail(before.error().message);
  auto after = LoadSchedule(args.positional[2]);
  if (!after.ok()) return Fail(after.error().message);
  const net::Router router(scenario->topology);
  const core::CostModel cm(scenario->topology, router, scenario->catalog);
  std::cout << core::DiffSchedules(*before, *after, cm)
                   .ToText(scenario->topology);
  return 0;
}

int CmdReport(const Args& args) {
  if (args.positional.size() < 2) {
    return Fail("report needs <scenario.json> <schedule.json>");
  }
  auto scenario = LoadScenario(args.positional[0]);
  if (!scenario.ok()) return Fail(scenario.error().message);
  auto schedule = LoadSchedule(args.positional[1]);
  if (!schedule.ok()) return Fail(schedule.error().message);
  const net::Router router(scenario->topology);
  const core::CostModel cm(scenario->topology, router, scenario->catalog);
  std::cout << core::BuildReport(*schedule, scenario->requests, cm)
                   .ToText(scenario->topology);
  return 0;
}

int CmdValidate(const Args& args) {
  if (args.positional.size() < 2) {
    return Fail("validate needs <scenario.json> <schedule.json>");
  }
  auto scenario = LoadScenario(args.positional[0]);
  if (!scenario.ok()) return Fail(scenario.error().message);
  auto schedule = LoadSchedule(args.positional[1]);
  if (!schedule.ok()) return Fail(schedule.error().message);

  const net::Router router(scenario->topology);
  const core::CostModel cm(scenario->topology, router, scenario->catalog);
  const auto report =
      sim::ValidateSchedule(*schedule, scenario->requests, cm);
  if (report.ok()) {
    std::cout << "schedule is valid; total cost $"
              << cm.TotalCost(*schedule).value() << '\n';
    return 0;
  }
  for (const sim::Violation& v : report.violations) {
    std::cout << sim::ToString(v.kind) << ": " << v.detail << '\n';
  }
  std::cout << report.violations.size() << " violation(s)\n";
  return 2;
}

int CmdSimulate(const Args& args) {
  if (args.positional.size() < 2) {
    return Fail("simulate needs <scenario.json> <schedule.json>");
  }
  auto scenario = LoadScenario(args.positional[0]);
  if (!scenario.ok()) return Fail(scenario.error().message);
  auto schedule = LoadSchedule(args.positional[1]);
  if (!schedule.ok()) return Fail(schedule.error().message);

  const net::Router router(scenario->topology);
  const core::CostModel cm(scenario->topology, router, scenario->catalog);
  const sim::SimulationResult sim =
      sim::SimulateSchedule(*schedule, scenario->requests, cm);

  std::cout << "events processed: " << sim.events_processed
            << ", peak concurrent streams: " << sim.peak_concurrent_streams
            << '\n';
  util::Table nodes({"storage", "peak GB", "mean GB", "caches"});
  for (const sim::NodeTelemetry& n : sim.nodes) {
    nodes.AddRow({scenario->topology.node(n.node).name,
                  util::Table::Num(n.peak_bytes / 1e9, 2),
                  util::Table::Num(n.mean_bytes / 1e9, 2),
                  std::to_string(n.residencies)});
  }
  nodes.PrintPretty(std::cout);
  util::Table links({"link", "GB shipped", "peak streams"});
  for (const sim::LinkTelemetry& l : sim.links) {
    links.AddRow({scenario->topology.node(l.a).name + "-" +
                      scenario->topology.node(l.b).name,
                  util::Table::Num(l.total_bytes / 1e9, 2),
                  std::to_string(l.peak_streams)});
  }
  links.PrintPretty(std::cout);
  return 0;
}

int CmdServe(const Args& args) {
  if (args.positional.empty()) return Fail("serve needs a scenario file");
  auto scenario = LoadScenario(args.positional[0]);
  if (!scenario.ok()) return Fail(scenario.error().message);

  const std::string listen_spec = args.Str("listen", "");
  const double cycle = args.Number("cycle", 0.0);
  if (listen_spec.empty() && cycle <= 0.0) {
    return Fail("serve needs --cycle SECS (> 0) unless --listen is given");
  }
  const std::size_t producers = args.Count("producers", 1);
  if (producers < 1) return Fail("--producers must be >= 1");
  const double clock_ms = args.Number("clock-ms", 0.0);
  if (clock_ms < 0) return Fail("--clock-ms must be >= 0");
  // Long-running modes exit cleanly on ^C / SIGTERM: the flag is polled
  // below and the run falls through to the output-writing epilogue.
  if (clock_ms > 0 || !listen_spec.empty()) InstallStopHandlers();

  svc::ServiceConfig config;
  config.shards = args.Count("shards", config.shards);
  if (config.shards == 0) return Fail("--shards must be >= 1");
  config.scheduler.parallel.threads = args.Count("threads", 1);
  config.scheduler.sorp_regions = ParseRegions(args);
  if (clock_ms > 0) config.cycle_period_seconds = clock_ms / 1000.0;

  const std::string metrics_out = args.Str("metrics-out", "");
  obs::MetricsRegistry registry;
  if (!metrics_out.empty()) config.metrics = &registry;

  svc::ReservationService service(scenario->topology, scenario->catalog,
                                  config);

  // --snapshot FILE doubles as restore source and save target (JSON or
  // vor-bin, sniffed by magic).
  const std::string snapshot_path = args.Str("snapshot", "");
  if (!snapshot_path.empty()) {
    if (auto text = io::ReadFile(snapshot_path); text.ok()) {
      auto snapshot = svc::SnapshotFromBytes(*text);
      if (!snapshot.ok()) return Fail("snapshot: " + snapshot.error().message);
      if (const util::Status s = service.Restore(*snapshot); !s.ok()) {
        return Fail("snapshot: " + s.error().message);
      }
      std::cout << "restored " << snapshot_path << " at cycle "
                << service.cycle_index() << " (" << snapshot->committed.size()
                << " committed, " << snapshot->deferred.size()
                << " deferred)\n";
    } else {
      std::cout << "no snapshot at " << snapshot_path
                << ", starting fresh\n";
    }
  }

  std::vector<svc::CycleStats> closes;

  const bool binary_out = args.Flag("binary");
  const bool listen_mode = !listen_spec.empty();
  std::size_t total = 0;
  std::size_t backpressured = 0;

  if (listen_mode) {
    // Network front door: requests arrive over "vor-rpc/1" sockets
    // instead of a local trace.  Cycle closes are driven by the clients
    // (kCycleClose frames) and/or the --clock-ms background timer; the
    // loop below just waits for a shutdown request or a signal.
    auto endpoint = rpc::ParseEndpoint(listen_spec);
    if (!endpoint.ok()) return Fail(endpoint.error().message);
    rpc::ServerConfig server_config;
    server_config.listen = *endpoint;
    server_config.max_connections = args.Count("connections", 16);
    server_config.metrics = config.metrics;
    if (!snapshot_path.empty()) {
      server_config.snapshot_writer =
          [&service, snapshot_path, binary_out]() -> util::Result<std::string> {
        const svc::ServiceSnapshot snap = service.Snapshot();
        const std::string text = binary_out
                                     ? svc::SnapshotToBinary(snap)
                                     : svc::SnapshotToJson(snap).Dump(2);
        if (const util::Status s = io::WriteFile(snapshot_path, text);
            !s.ok()) {
          return s.error();
        }
        return snapshot_path;
      };
    }
    rpc::Server server(service, server_config);
    if (const util::Status s = server.Start(); !s.ok()) {
      return Fail(s.error().message);
    }
    std::cout << "listening on " << endpoint->host << ":" << server.port()
              << " (vor-rpc/1)\n";
    const std::string port_file = args.Str("port-file", "");
    if (!port_file.empty()) {
      if (const util::Status s = io::WriteFile(
              port_file, std::to_string(server.port()) + "\n");
          !s.ok()) {
        return Fail(s.error().message);
      }
    }
    if (clock_ms > 0) service.Start();
    while (g_stop_signal == 0 && !server.WaitForShutdownRequest(0.2)) {
    }
    server.Stop();
    if (clock_ms > 0) service.Stop();
    closes = service.History();
    total = service.CommittedCount() + service.DeferredCount() +
            service.PendingCount();
  } else {
  // The trace is consumed as a stream in canonical replay order: a
  // vor-bin trace file is replayed chunk by chunk without ever holding
  // the full request vector; CSV and scenario requests are materialized
  // and sorted.  Requests are partitioned into virtual-time windows of
  // --cycle seconds anchored at the first (earliest) request, and only a
  // non-empty window closes a cycle, so a restored run resumes on exactly
  // the window boundaries the original run used.
  const std::string trace_path = args.Str("trace", "");
  auto stream = trace_path.empty()
                    ? util::Result<workload::TraceStream>(
                          workload::TraceStream::FromVector(
                              std::move(scenario->requests)))
                    : workload::TraceStream::OpenFile(trace_path);
  if (!stream.ok()) return Fail(stream.error().message);

  if (clock_ms > 0) service.Start();

  // Each closed cycle was one non-empty window, so a restored run skips
  // its first cycle_index() non-empty windows.
  std::size_t skip_windows = static_cast<std::size_t>(service.cycle_index());
  // The open window's index, floor((start - t0) / cycle): monotone in the
  // start time, so windows stay contiguous, and computed directly, so an
  // empty stretch of the trace costs nothing.
  double w = 0.0;
  std::vector<workload::Request> window;

  // Submits the buffered window with --producers concurrent threads and
  // closes the cycle.  An empty window closes nothing; windows inside the
  // restored horizon are skipped (their requests are already part of the
  // service state).
  auto close_window = [&]() -> int {
    if (window.empty()) return 0;
    if (skip_windows > 0) {
      --skip_windows;
      window.clear();
      return 0;
    }
    std::vector<std::thread> pool;
    std::vector<std::size_t> rejected(producers, 0);
    for (std::size_t p = 0; p < producers; ++p) {
      pool.emplace_back([&, p] {
        for (std::size_t i = p; i < window.size(); i += producers) {
          const auto outcome =
              service.Submit(window[i], window[i].start_time);
          if (outcome == svc::SubmitOutcome::kRejectedBackpressure ||
              outcome == svc::SubmitOutcome::kRejectedInvalid) {
            ++rejected[p];
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
    for (const std::size_t r : rejected) backpressured += r;
    window.clear();
    auto stats = service.CloseCycle();
    if (!stats.ok()) return Fail(stats.error().message);
    closes.push_back(*stats);
    return 0;
  };

  double t0 = 0.0;
  workload::Request r;
  while (true) {
    // Soak mode (--clock-ms) runs long; ^C/SIGTERM ends the replay early
    // but still stops the clock and writes snapshot/metrics below.
    if (g_stop_signal != 0) break;
    auto more = stream->Next(r);
    if (!more.ok()) return Fail(more.error().message);
    if (!*more) break;
    if (const util::Status s = workload::ValidateRequest(
            r, scenario->topology, scenario->catalog, total);
        !s.ok()) {
      return Fail(s.error().message);
    }
    if (total == 0) t0 = r.start_time.value();
    if (const double next = std::floor((r.start_time.value() - t0) / cycle);
        next != w) {
      if (const int rc = close_window(); rc != 0) return rc;
      w = next;
    }
    window.push_back(r);
    ++total;
  }
  if (total == 0 && g_stop_signal == 0) {
    return Fail("serve: no requests to replay");
  }
  if (const int rc = close_window(); rc != 0) return rc;

  if (clock_ms > 0) service.Stop();

  // Drain the deferred backlog; stop when it empties or stops shrinking.
  std::size_t backlog = service.DeferredCount();
  for (int extra = 0; backlog > 0 && extra < 16; ++extra) {
    auto stats = service.CloseCycle();
    if (!stats.ok()) return Fail(stats.error().message);
    closes.push_back(*stats);
    const std::size_t now = service.DeferredCount();
    if (now >= backlog) break;
    backlog = now;
  }
  }  // !listen_mode
  PrintCycleTable(closes);
  if (backpressured > 0) {
    std::cout << backpressured << " submit(s) rejected at intake\n";
  }

  // The service's own invariant, re-checked end to end.
  const core::Schedule schedule = service.CommittedSchedule();
  const std::vector<workload::Request> committed =
      service.CommittedRequests();
  const net::Router router(scenario->topology);
  const core::CostModel cm(scenario->topology, router, scenario->catalog);
  const auto report = sim::ValidateSchedule(schedule, committed, cm);
  if (!report.ok()) {
    for (const sim::Violation& v : report.violations) {
      std::cout << sim::ToString(v.kind) << ": " << v.detail << '\n';
    }
    return Fail("committed schedule failed validation");
  }

  std::vector<double> close_times;
  for (const svc::CycleStats& s : service.History()) {
    close_times.push_back(s.close_seconds);
  }
  std::cout << "served " << committed.size() << "/" << total
            << " request(s) over " << service.cycle_index()
            << " cycle(s); backlog " << service.DeferredCount()
            << "; total cost $" << cm.TotalCost(schedule).value() << '\n';
  std::cout << "cycle close p50 " << util::Percentile(close_times, 50)
            << " s, p95 " << util::Percentile(close_times, 95) << " s\n";

  const std::string out = args.Str("out", "");
  if (!out.empty()) {
    const std::string text = binary_out ? io::ScheduleToBinary(schedule)
                                        : io::ToJson(schedule).Dump(2);
    if (const util::Status s = io::WriteFile(out, text); !s.ok()) {
      return Fail(s.error().message);
    }
    std::cout << "wrote " << out << '\n';
  }
  if (!snapshot_path.empty()) {
    const svc::ServiceSnapshot snap = service.Snapshot();
    const std::string text = binary_out
                                 ? svc::SnapshotToBinary(snap)
                                 : svc::SnapshotToJson(snap).Dump(2);
    if (const util::Status s = io::WriteFile(snapshot_path, text); !s.ok()) {
      return Fail(s.error().message);
    }
    std::cout << "wrote " << snapshot_path << '\n';
  }
  if (!metrics_out.empty()) {
    util::Json doc = registry.ToJson();
    doc.as_object()["version"] = "vor-metrics/1";
    if (const util::Status s = io::WriteFile(metrics_out, doc.Dump(2));
        !s.ok()) {
      return Fail(s.error().message);
    }
    std::cout << "wrote " << metrics_out << '\n';
  }
  return 0;
}

// vorctl load — the client half of the RPC front-end: streams a trace
// file to a `vorctl serve --listen` instance over N concurrent
// connections, mirroring the in-process replay's virtual-time windows,
// and reports the latency distributions the wire adds.
int CmdLoad(const Args& args) {
  const std::string connect = args.Str("connect", "");
  if (connect.empty()) {
    return Fail("load needs --connect HOST:PORT[,HOST:PORT...]");
  }
  auto endpoints = rpc::ParseEndpointList(connect);
  if (!endpoints.ok()) return Fail(endpoints.error().message);
  const std::string trace_path = args.Str("trace", "");
  if (trace_path.empty()) return Fail("load needs --trace FILE");
  const double cycle = args.Number("cycle", 0.0);
  if (cycle <= 0.0) return Fail("load needs --cycle SECS (> 0)");

  rpc::LoadConfig config;
  config.endpoints = std::move(*endpoints);
  config.connections = args.Count("connections", 4);
  if (config.connections < 1) return Fail("--connections must be >= 1");
  config.cycle_seconds = cycle;
  config.drain = !args.Flag("no-drain");
  config.shutdown_after = args.Flag("shutdown");

  const std::string metrics_out = args.Str("metrics-out", "");
  obs::MetricsRegistry registry;
  if (!metrics_out.empty()) config.metrics = &registry;

  auto stream = workload::TraceStream::OpenFile(trace_path);
  if (!stream.ok()) return Fail(stream.error().message);

  auto report = rpc::RunLoad(*stream, config);
  if (!report.ok()) return Fail(report.error().message);

  PrintCycleTable(report->closes);

  std::cout << "submitted " << report->submitted << " request(s) over "
            << config.connections << " connection(s): " << report->accepted
            << " accepted, " << report->deferred << " deferred, "
            << report->rejected_invalid << " invalid, "
            << report->rejected_backpressure << " backpressured, "
            << report->transport_errors << " transport error(s)\n";
  std::cout << "closed " << report->CyclesClosed() << " cycle(s) in "
            << util::Table::Num(report->wall_seconds, 2) << " s\n";
  std::cout << "submit->ack    p50 "
            << util::Percentile(report->ack_seconds, 50) << " s, p95 "
            << util::Percentile(report->ack_seconds, 95) << " s\n";
  std::cout << "submit->commit p50 "
            << util::Percentile(report->commit_seconds, 50) << " s, p95 "
            << util::Percentile(report->commit_seconds, 95) << " s\n";

  if (!metrics_out.empty()) {
    util::Json doc = registry.ToJson();
    doc.as_object()["version"] = "vor-metrics/1";
    if (const util::Status s = io::WriteFile(metrics_out, doc.Dump(2));
        !s.ok()) {
      return Fail(s.error().message);
    }
    std::cout << "wrote " << metrics_out << '\n';
  }
  return 0;
}

// vorctl convert <in> <out> — translates between the text formats (CSV
// trace, JSON schedule/snapshot/requests) and their vor-bin twins.  The
// input format is sniffed: vor-bin magic dispatches on the container
// kind back to text; text dispatches on the CSV header or the JSON
// "kind"/"format" fields forward to binary.  Traces are normalized to
// canonical replay order on the way into binary, so the output is
// always streamable.
int CmdConvert(const Args& args) {
  if (args.positional.size() < 2) {
    return Fail("convert needs <in> <out>");
  }
  const std::string& in_path = args.positional[0];
  const std::string& out_path = args.positional[1];
  auto text = io::ReadFile(in_path);
  if (!text.ok()) return Fail(text.error().message);

  std::string out_text;
  std::string what;
  if (io::LooksBinary(*text)) {
    const auto kind = io::SniffBinaryKind(*text);
    if (!kind.ok()) return Fail(kind.error().message);
    switch (*kind) {
      case io::BinaryKind::kTrace: {
        auto trace = io::TraceFromBinary(*text);
        if (!trace.ok()) return Fail(trace.error().message);
        out_text = workload::RequestsToCsv(*trace);
        what = "trace (binary -> csv)";
        break;
      }
      case io::BinaryKind::kSchedule: {
        auto schedule = io::ScheduleFromBinary(*text);
        if (!schedule.ok()) return Fail(schedule.error().message);
        out_text = io::ToJson(*schedule).Dump(2);
        what = "schedule (binary -> json)";
        break;
      }
      case io::BinaryKind::kSnapshot: {
        auto snapshot = svc::SnapshotFromBinary(*text);
        if (!snapshot.ok()) return Fail(snapshot.error().message);
        out_text = svc::SnapshotToJson(*snapshot).Dump(2);
        what = "snapshot (binary -> json)";
        break;
      }
    }
  } else if (text->rfind("user,", 0) == 0) {
    auto trace = workload::RequestsFromCsv(*text);
    if (!trace.ok()) return Fail(trace.error().message);
    workload::SortForReplay(*trace);
    out_text = io::TraceToBinary(*trace);
    what = "trace (csv -> binary)";
  } else {
    auto json = util::Json::Parse(*text);
    if (!json.ok()) return Fail(json.error().message);
    const std::string kind = json->GetString("kind", "");
    if (json->GetString("format", "") == "vor-svc/1") {
      auto snapshot = svc::SnapshotFromJson(*json);
      if (!snapshot.ok()) return Fail(snapshot.error().message);
      out_text = svc::SnapshotToBinary(*snapshot);
      what = "snapshot (json -> binary)";
    } else if (kind == "schedule") {
      auto schedule = io::ScheduleFromJson(*json);
      if (!schedule.ok()) return Fail(schedule.error().message);
      out_text = io::ScheduleToBinary(*schedule);
      what = "schedule (json -> binary)";
    } else if (kind == "requests") {
      auto trace = io::RequestsFromJson(*json);
      if (!trace.ok()) return Fail(trace.error().message);
      workload::SortForReplay(*trace);
      out_text = io::TraceToBinary(*trace);
      what = "trace (json -> binary)";
    } else {
      return Fail("convert: unsupported document kind '" + kind + "'");
    }
  }

  if (const util::Status s = io::WriteFile(out_path, out_text); !s.ok()) {
    return Fail(s.error().message);
  }
  std::cout << "wrote " << out_path << ": " << what << '\n';
  return 0;
}

void PrintUsage() {
  std::cout <<
      "usage: vorctl <command> [args]\n"
      "  gen-scenario [--nrate N] [--srate N] [--capacity-gb N] [--alpha A]\n"
      "               [--storages N] [--hubs N] [--users N] [--catalog N]\n"
      "               [--seed N] [--evening] [--out FILE] [--trace-out FILE]\n"
      "               [--binary]\n"
      "  gen-trace <scenario.json> --out trace.bin [--users N]\n"
      "            [--requests-per-user N] [--alpha A] [--affinity F]\n"
      "            [--diurnal F] [--flash-fraction F] [--flash-start S]\n"
      "            [--flash-length S] [--cycle-length S] [--buckets N]\n"
      "            [--seed N]      (streamed vor-bin, O(bucket) memory)\n"
      "  solve <scenario.json> [--heat m1|m2|m3|m4] [--out schedule]\n"
      "        [--trace FILE] [--threads N] [--regions N|auto]\n"
      "        [--binary] [--metrics-out FILE.json]\n"
      "  serve <scenario.json> --cycle SECS [--trace FILE]\n"
      "        [--producers N] [--shards N] [--threads N] [--regions N|auto]\n"
      "        [--snapshot FILE] [--clock-ms MS] [--out FILE]\n"
      "        [--binary] [--metrics-out FILE.json]\n"
      "        [--listen HOST:PORT] [--port-file FILE] [--connections N]\n"
      "            (--listen serves vor-rpc/1 sockets instead of a local\n"
      "             replay; port 0 = ephemeral, resolved into --port-file)\n"
      "  load --connect HOST:PORT[,...] --trace FILE --cycle SECS\n"
      "       [--connections N] [--no-drain] [--shutdown]\n"
      "       [--metrics-out FILE.json]\n"
      "            (streams the trace to a serving vorctl over N\n"
      "             concurrent connections; failover across the list)\n"
      "  convert <in> <out>        (csv/json <-> vor-bin, format sniffed)\n"
      "  validate <scenario.json> <schedule>\n"
      "  simulate <scenario.json> <schedule>\n"
      "  report <scenario.json> <schedule>\n"
      "  diff <scenario.json> <before> <after>\n"
      "trace/schedule/snapshot files may be text or vor-bin; --binary\n"
      "selects vor-bin for files written by gen-scenario/solve/serve.\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const std::string command = argv[1];
  const Args args = ParseArgs(argc, argv, 2);
  try {
    if (command == "gen-scenario") return CmdGenScenario(args);
    if (command == "gen-trace") return CmdGenTrace(args);
    if (command == "solve") return CmdSolve(args);
    if (command == "serve") return CmdServe(args);
    if (command == "load") return CmdLoad(args);
    if (command == "convert") return CmdConvert(args);
    if (command == "validate") return CmdValidate(args);
    if (command == "simulate") return CmdSimulate(args);
    if (command == "report") return CmdReport(args);
    if (command == "diff") return CmdDiff(args);
  } catch (const UsageError& e) {
    return Fail(e.message);
  }
  if (command == "help" || command == "--help") {
    PrintUsage();
    return 0;
  }
  return Fail("unknown command '" + command + "' (try 'vorctl help')");
}
