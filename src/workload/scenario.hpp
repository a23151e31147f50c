// The paper's evaluation environment (Sec. 5.1, Table 4) as a reusable
// scenario: one call builds the 20-node topology, the 500-title catalog,
// and one cycle of reservations, with the four swept attributes — network
// charging rate, storage charging rate, intermediate storage size, and
// Zipf skew — exposed as scalar knobs.
//
// Rate units (the paper's are "values in an arbitrary charging system"):
//   * nrate knob  = $ per gigabyte per hop      (Table 4 sweeps 300..1000)
//   * srate knob  = $ per gigabyte-hour         (Table 4 sweeps 3..8;
//                                                Fig. 7/8 sweep 0..300)
// These units put the Table-4 operating point in the same regime as the
// paper's figures: network cost dominates, caching pays off strongly at
// small srate and fades toward the network-only cost as srate grows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "media/catalog.hpp"
#include "net/topology.hpp"
#include "util/result.hpp"
#include "util/units.hpp"
#include "workload/generator.hpp"
#include "workload/request.hpp"

namespace vor::workload {

struct ScenarioParams {
  // --- Table 4 swept attributes --------------------------------------
  /// Network charging rate, $/GB per hop (base; links get +-20% jitter).
  double nrate_per_gb = 500.0;
  /// Storage charging rate, $/(GB*hour), uniform across IS nodes.
  double srate_per_gb_hour = 5.0;
  /// Intermediate storage size.
  util::Bytes is_capacity = util::GB(5.0);
  /// Zipf skew (larger = less biased).
  double zipf_alpha = 0.271;

  // --- fixed environment ----------------------------------------------
  std::size_t storage_count = 19;   // + 1 warehouse = 20 nodes
  /// Warehouse-adjacent hub tier width (0 = topology default).  Hubs seed
  /// the natural regions, so this is also the region-sharded SORP fan-out.
  std::size_t hub_count = 0;
  std::size_t users_per_neighborhood = 10;
  std::size_t catalog_size = 500;
  util::Bytes mean_video_size = util::GB(3.3);
  util::Seconds cycle_length = util::Hours(24.0);
  StartTimeProfile start_profile = StartTimeProfile::kUniform;
  std::uint64_t seed = 1997;

  /// Converts the srate knob to the cost model's $/(byte*sec).
  [[nodiscard]] util::StorageRate srate() const {
    return util::StorageRate{srate_per_gb_hour / (1e9 * 3600.0)};
  }
  /// Converts the nrate knob to the cost model's $/byte.
  [[nodiscard]] util::NetworkRate nrate() const {
    return util::NetworkRate{nrate_per_gb / 1e9};
  }
};

/// A fully materialized experiment environment.
struct Scenario {
  net::Topology topology;
  media::Catalog catalog;
  std::vector<Request> requests;
  ScenarioParams params;
};

/// Rejects parameters MakeScenario cannot build from: no storage nodes, an
/// empty catalog, or a Zipf skew outside [0, 1].  Parameters that come
/// from outside the program (scenario files, CLI flags) pass through here
/// before MakeScenario sees them.
[[nodiscard]] util::Status ValidateScenarioParams(const ScenarioParams& params);

/// Builds the scenario deterministically from its parameters.  The same
/// seed yields the same topology jitter, catalog, and request trace, so a
/// sweep over one knob holds everything else fixed, exactly as the
/// paper's figures require.
[[nodiscard]] Scenario MakeScenario(const ScenarioParams& params);

/// The Table-4 grid: every combination of
///   srate     in {3, 4, 5, 6, 7, 8} $/(GB*h)
///   IS size   in {5, 8, 11, 14} GB
///   nrate     in {300, 400, ..., 1000} $/GB
///   alpha     in {0.1, 0.271, 0.5, 0.7}
/// = 6 * 4 * 8 * 4 = 768 combinations (the paper reports 785 runs; the
/// clean grid above is the closest reconstruction its Table 4 admits).
[[nodiscard]] std::vector<ScenarioParams> Table4Grid(
    const ScenarioParams& base = {});

/// Human-readable one-liner for logs and CSV keys.
[[nodiscard]] std::string Describe(const ScenarioParams& params);

}  // namespace vor::workload
