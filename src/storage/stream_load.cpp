#include "storage/stream_load.hpp"

#include <algorithm>

namespace vor::storage {

namespace {

std::pair<net::NodeId, net::NodeId> LinkKey(net::NodeId a, net::NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

bool Overloaded(const util::PiecewiseLinear& load, double cap) {
  return load.Max() > cap * (1.0 + 1e-12);
}

}  // namespace

bool HasStreamCaps(const net::Topology& topology) {
  for (const net::Link& l : topology.links()) {
    if (l.bandwidth_cap.value() > 0.0) return true;
  }
  for (const net::NodeInfo& n : topology.nodes()) {
    if (n.kind == net::NodeKind::kStorage && n.io_cap.value() > 0.0) {
      return true;
    }
  }
  return false;
}

StreamLoad::StreamLoad(const net::Topology& topology,
                       const media::Catalog& catalog)
    : catalog_(&catalog) {
  for (const net::Link& l : topology.links()) {
    const double cap = l.bandwidth_cap.value();
    if (cap <= 0.0) continue;
    // Parallel capacitated links between one pair share the key and keep
    // the larger cap (the paper topology has no parallel links).
    Resource& link = links_[LinkKey(l.a, l.b)];
    link.cap = std::max(link.cap, cap);
  }
  for (const net::NodeInfo& n : topology.nodes()) {
    if (n.kind == net::NodeKind::kStorage && n.io_cap.value() > 0.0) {
      nodes_[n.id].cap = n.io_cap.value();
    }
  }
}

util::LinearPiece StreamLoad::Piece(media::VideoId video,
                                    util::Seconds t) const {
  const media::Video& v = catalog_->video(video);
  const util::Seconds end = t + v.playback;
  return util::LinearPiece{t, end, end, v.bandwidth.value(), video};
}

bool StreamLoad::RouteFits(const std::vector<net::NodeId>& route,
                           util::Seconds t, media::VideoId video) const {
  if (route.empty()) return true;
  const util::LinearPiece piece = Piece(video, t);
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    const auto it = links_.find(LinkKey(route[i], route[i + 1]));
    if (it != links_.end() &&
        !it->second.load.FitsUnder(piece, it->second.cap)) {
      return false;
    }
  }
  // Serving I/O at the origin; a local replay (single-node route) also
  // streams off the origin's disks.
  const auto origin = nodes_.find(route.front());
  return origin == nodes_.end() ||
         origin->second.load.FitsUnder(piece, origin->second.cap);
}

void StreamLoad::AddDelivery(const core::Delivery& d) {
  if (d.route.empty()) return;
  const util::LinearPiece piece = Piece(d.video, d.start);
  for (std::size_t i = 0; i + 1 < d.route.size(); ++i) {
    const auto it = links_.find(LinkKey(d.route[i], d.route[i + 1]));
    if (it != links_.end()) it->second.load.InsertSortedByTag(piece);
  }
  const auto origin = nodes_.find(d.route.front());
  if (origin != nodes_.end()) origin->second.load.InsertSortedByTag(piece);
}

void StreamLoad::AddFile(const core::FileSchedule& file) {
  for (const core::Delivery& d : file.deliveries) AddDelivery(d);
}

void StreamLoad::RemoveFile(media::VideoId video) {
  for (auto& [key, link] : links_) link.load.RemoveByTag(video);
  for (auto& [node, storage] : nodes_) storage.load.RemoveByTag(video);
}

double StreamLoad::WorstUtilization() const {
  double worst = 0.0;
  for (const auto& [key, link] : links_) {
    worst = std::max(worst, link.load.Max() / link.cap);
  }
  for (const auto& [node, storage] : nodes_) {
    worst = std::max(worst, storage.load.Max() / storage.cap);
  }
  return worst;
}

std::size_t StreamLoad::OverloadedLinks() const {
  return static_cast<std::size_t>(
      std::count_if(links_.begin(), links_.end(), [](const auto& entry) {
        return Overloaded(entry.second.load, entry.second.cap);
      }));
}

std::size_t StreamLoad::OverloadedNodes() const {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(), [](const auto& entry) {
        return Overloaded(entry.second.load, entry.second.cap);
      }));
}

StreamReport MeasureStreams(const core::Schedule& schedule,
                            const net::Topology& topology,
                            const media::Catalog& catalog) {
  StreamLoad load(topology, catalog);
  StreamReport report;
  for (const core::FileSchedule& file : schedule.files) {
    for (const core::Delivery& d : file.deliveries) {
      if (!load.RouteFits(d.route, d.start, d.video)) ++report.forced_requests;
      load.AddDelivery(d);
    }
  }
  report.overloaded_links = load.OverloadedLinks();
  report.overloaded_nodes = load.OverloadedNodes();
  report.worst_utilization = load.WorstUtilization();
  return report;
}

}  // namespace vor::storage
