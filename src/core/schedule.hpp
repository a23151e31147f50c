// Service schedule data model (Sec. 2.1).
//
// A schedule S is the union of per-title schedules S_i, each holding:
//   * network transfer records d_i = (route, start time, request) — one per
//     serviced request (a request served by its local cache carries a
//     trivial single-node route), and
//   * file residency records c_i = ([t_s, t_f], location, source, service
//     list) describing temporary caching at an intermediate storage.
// S_i states its title once; a record's title is its S_i's.
//
// Caches are filled by copying data blocks out of an on-going stream
// (Sec. 2.1), so every residency is anchored to a delivery of the same
// video whose route passes through the residency's location at t_s; the
// anchoring itself costs no extra network transfer.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "media/video.hpp"
#include "net/route.hpp"
#include "net/topology.hpp"
#include "util/interval.hpp"
#include "util/units.hpp"

namespace vor::core {

/// Sentinel for deliveries that serve no user request (dedicated cache
/// loads; not produced by the default pipeline but supported throughout).
inline constexpr std::size_t kNoRequest = std::numeric_limits<std::size_t>::max();

/// Network transfer information d_i.
struct Delivery {
  /// Node sequence from stream origin to the user's local IS.
  net::Route route;
  /// Stream start time t_s^i (equals the request's presentation time).
  util::Seconds start{0.0};
  /// Index into the cycle's request vector, or kNoRequest.
  std::size_t request_index = kNoRequest;

  [[nodiscard]] net::NodeId origin() const { return route.front(); }
  [[nodiscard]] net::NodeId destination() const { return route.back(); }
};

// With routes of up to four nodes held inline (net::Route), a file's
// deliveries are one flat array; keep the record at five words.
static_assert(sizeof(Delivery) <= 40);

/// File residency information c_i.
struct Residency {
  /// Intermediate storage holding the copy (loc_i).
  net::NodeId location = net::kInvalidNode;
  /// Origin node of the anchoring stream (n_src: VW or another cache).
  net::NodeId source = net::kInvalidNode;
  /// Caching interval start t_s (first block copied).
  util::Seconds t_start{0.0};
  /// Start time of the last service played from this copy (t_f).  The
  /// blocks remain needed through t_f + playback, draining linearly.
  util::Seconds t_last{0.0};
  /// Requests served out of this copy (indices into the request vector),
  /// chronological.
  std::vector<std::size_t> services;

  /// Caching duration t_f - t_s.
  [[nodiscard]] util::Seconds duration() const { return t_last - t_start; }
};

static_assert(sizeof(Residency) <= 48);

/// Schedule S_i for one video file (all requests for that title).
struct FileSchedule {
  media::VideoId video = 0;
  std::vector<Delivery> deliveries;
  std::vector<Residency> residencies;
};

/// The full cycle schedule S = union of the S_i.
struct Schedule {
  std::vector<FileSchedule> files;

  [[nodiscard]] std::size_t TotalDeliveries() const;
  [[nodiscard]] std::size_t TotalResidencies() const;

  /// File index holding `video`, or npos.
  [[nodiscard]] std::size_t FindFile(media::VideoId video) const;
};

/// Stable identity of a residency across SORP iterations: packs the file
/// index and the residency's index within that file.
struct ResidencyRef {
  std::size_t file_index = 0;
  std::size_t residency_index = 0;

  [[nodiscard]] std::uint64_t Pack() const {
    return (static_cast<std::uint64_t>(file_index) << 20) |
           static_cast<std::uint64_t>(residency_index);
  }
  static ResidencyRef Unpack(std::uint64_t tag) {
    return ResidencyRef{static_cast<std::size_t>(tag >> 20),
                        static_cast<std::size_t>(tag & ((1u << 20) - 1))};
  }
  friend bool operator==(const ResidencyRef&, const ResidencyRef&) = default;
};

}  // namespace vor::core
