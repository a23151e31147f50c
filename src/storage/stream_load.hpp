// Per-link and per-storage stream load: the bandwidth side of a
// topology's capacities (the paper's Sec. 6 future work).
//
// A link may declare a bandwidth_cap and a storage an io_cap (both in
// bytes/sec; <= 0 means uncapacitated, the base paper's model).  Every
// delivery occupies its title's bandwidth on each link of its route for
// the playback window [t, t + playback), and on its origin storage's
// serving I/O; the aggregate load of one resource is a step function,
// held as util::PiecewiseLinear rectangles (t1 == t2 == t + playback).
// The warehouse is never capped.
//
// Streams are tagged by title.  A schedule holds one file per title, so
// the tag names the file: RemoveFile drops exactly one file's streams.
// Each timeline keeps its pieces in ascending title order, ties in
// insertion order — the order a fresh build produces — so a load that
// had files removed and re-added answers bit-identically to a rebuild.
#pragma once

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "core/schedule.hpp"
#include "media/catalog.hpp"
#include "net/topology.hpp"
#include "util/piecewise.hpp"
#include "util/units.hpp"

namespace vor::storage {

/// True when the topology declares any bandwidth_cap or storage io_cap;
/// the schedulers apply stream constraints only then.
[[nodiscard]] bool HasStreamCaps(const net::Topology& topology);

class StreamLoad {
 public:
  StreamLoad(const net::Topology& topology, const media::Catalog& catalog);

  /// True iff a stream of `video` starting at `t` keeps every capacitated
  /// link on `route` within its cap over [t, t + playback) and, when the
  /// route starts at an io-capped storage, that storage within its cap.
  [[nodiscard]] bool RouteFits(const std::vector<net::NodeId>& route,
                               util::Seconds t, media::VideoId video) const;

  /// Accounts one delivery under its title's tag.
  void AddDelivery(const core::Delivery& d);

  /// Accounts every delivery of a file.
  void AddFile(const core::FileSchedule& file);

  /// Removes every stream of `video`'s file.
  void RemoveFile(media::VideoId video);

  /// Peak load over cap across all capacitated links and storages;
  /// <= 1 means feasible.
  [[nodiscard]] double WorstUtilization() const;

  /// Capacitated links whose load exceeds their cap somewhere.
  [[nodiscard]] std::size_t OverloadedLinks() const;

  /// Capacitated storages whose serving I/O exceeds their cap somewhere.
  [[nodiscard]] std::size_t OverloadedNodes() const;

 private:
  struct Resource {
    double cap = 0.0;
    util::PiecewiseLinear load;
  };

  /// A stream of `video` from `t`: a rectangle of the title's bandwidth.
  [[nodiscard]] util::LinearPiece Piece(media::VideoId video,
                                        util::Seconds t) const;

  const media::Catalog* catalog_;
  /// Capacitated links, keyed by (smaller, larger) endpoint id.
  std::map<std::pair<net::NodeId, net::NodeId>, Resource> links_;
  /// io-capped storages, keyed by node id.
  std::map<net::NodeId, Resource> nodes_;
};

/// The stream accounting of a finished schedule.
struct StreamReport {
  /// Deliveries whose route did not fit when the schedule was replayed
  /// in file order: requests forced through a saturated resource.
  std::size_t forced_requests = 0;
  std::size_t overloaded_links = 0;
  std::size_t overloaded_nodes = 0;
  double worst_utilization = 0.0;
};

[[nodiscard]] StreamReport MeasureStreams(const core::Schedule& schedule,
                                          const net::Topology& topology,
                                          const media::Catalog& catalog);

}  // namespace vor::storage
