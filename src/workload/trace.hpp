// CSV request traces.
//
// Operators keep reservation logs as flat tables; this module reads and
// writes them in a simple CSV schema so real traces can replace the
// synthetic Zipf workload anywhere a request vector is accepted:
//
//   user,video,start_sec,neighborhood
//   0,17,46200.5,3
//   1,4,47810.0,12
//
// Header row required; fields may be quoted (RFC-4180 style).  Parsing is
// strict: malformed rows are errors with line numbers, and ids are
// validated against the catalog/topology on request.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "media/catalog.hpp"
#include "net/topology.hpp"
#include "util/result.hpp"
#include "workload/request.hpp"

namespace vor::workload {

/// Serializes requests to CSV text (with header).
[[nodiscard]] std::string RequestsToCsv(const std::vector<Request>& requests);

/// Parses CSV text into requests.  Column order must match the header;
/// unknown columns are rejected.
[[nodiscard]] util::Result<std::vector<Request>> RequestsFromCsv(
    const std::string& text);

/// The one request check, made by every path that takes requests in
/// (traces, scenarios, the scheduler, the service): the title must be in
/// the catalog (kNotFound otherwise), the neighborhood a storage node and
/// the start time IsValidTime (kInvalidArgument otherwise).  A given
/// `index`, the request's position in its trace or log, appears in the
/// error message as "request N".
[[nodiscard]] util::Status ValidateRequest(
    const Request& r, const net::Topology& topology,
    const media::Catalog& catalog,
    std::optional<std::size_t> index = std::nullopt);

/// ValidateRequest over a whole trace, each record with its index.
[[nodiscard]] util::Status ValidateTrace(
    const std::vector<Request>& requests, const net::Topology& topology,
    const media::Catalog& catalog);

/// Canonical replay order: (start time, user, video, neighborhood),
/// ascending.  A reservation log's row order is an accident of how the
/// operator's collectors interleaved, so every replay path — trace
/// replay, multi-producer service intake drains — sorts with this total
/// order before scheduling; the output is then independent of producer
/// count and thread interleaving.
[[nodiscard]] bool ReplayOrderLess(const Request& a, const Request& b);

/// Stable-sorts `requests` into canonical replay order.  Stable so exact
/// duplicate rows keep their input order (they are interchangeable, but
/// stability makes the pre/post mapping predictable in tests).
void SortForReplay(std::vector<Request>& requests);

}  // namespace vor::workload
