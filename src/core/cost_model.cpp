#include "core/cost_model.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace vor::core {

namespace {
std::uint64_t PairKey(net::NodeId a, net::NodeId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}
}  // namespace

CostModel::CostModel(const net::Topology& topology, const net::Router& router,
                     const media::Catalog& catalog, PricingOptions pricing)
    : topology_(&topology),
      router_(&router),
      catalog_(&catalog),
      pricing_(pricing) {
  for (const net::Link& l : topology.links()) {
    // Keep the cheapest rate for parallel links.
    for (const auto key : {PairKey(l.a, l.b), PairKey(l.b, l.a)}) {
      auto [it, inserted] = link_rate_.emplace(key, l.nrate.value());
      if (!inserted) it->second = std::min(it->second, l.nrate.value());
    }
  }
  if (pricing_.basis == PricingBasis::kEndToEnd) {
    e2e_ = router.EndToEndMatrix(pricing_.e2e_discount);
  }
}

util::NetworkRate CostModel::LinkRate(net::NodeId a, net::NodeId b) const {
  const auto it = link_rate_.find(PairKey(a, b));
  if (it == link_rate_.end()) {
    // Externally supplied schedules (JSON) can reference non-links; an
    // infinite rate poisons the cost instead of invoking UB, and the
    // validator reports the broken route precisely.
    assert(false && "route uses a non-existent link");
    return util::NetworkRate{std::numeric_limits<double>::infinity()};
  }
  return util::NetworkRate{it->second};
}

util::NetworkRate CostModel::RouteRate(
    std::span<const net::NodeId> route) const {
  assert(!route.empty());
  if (route.size() == 1) return util::NetworkRate{0.0};
  if (pricing_.basis == PricingBasis::kEndToEnd) {
    return e2e_[route.front()][route.back()];
  }
  util::NetworkRate total{0.0};
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    total += LinkRate(route[i], route[i + 1]);
  }
  return total;
}

util::NetworkRate CostModel::RouteRate(net::NodeId from, net::NodeId to) const {
  if (from == to) return util::NetworkRate{0.0};
  if (pricing_.basis == PricingBasis::kEndToEnd) return e2e_[from][to];
  return router_->RouteRate(from, to);
}

util::Bytes CostModel::StreamBytes(media::VideoId video) const {
  const media::Video& v = catalog_->video(video);
  return v.bandwidth * v.playback;
}

util::Money CostModel::DeliveryCost(const Delivery& d,
                                    media::VideoId video) const {
  return RouteRate(d.route) * StreamBytes(video);
}

double CostModel::Gamma(const Residency& c, media::VideoId video) const {
  const media::Video& v = catalog_->video(video);
  const double delta = c.duration().value();
  const double playback = v.playback.value();
  assert(delta >= 0.0 && playback > 0.0);
  return std::min(1.0, delta / playback);
}

util::Money CostModel::ResidencyCostAt(net::NodeId location,
                                       media::VideoId video,
                                       util::Seconds t_start,
                                       util::Seconds t_last) const {
  const media::Video& v = catalog_->video(video);
  const double delta = (t_last - t_start).value();
  assert(delta >= 0.0);
  const double playback = v.playback.value();
  const double gamma = std::min(1.0, delta / playback);
  const util::ByteSeconds reserved{v.size.value() * gamma *
                                   (delta + playback / 2.0)};
  return topology_->node(location).srate * reserved;
}

util::Money CostModel::ResidencyCost(const Residency& c,
                                     media::VideoId video) const {
  return ResidencyCostAt(c.location, video, c.t_start, c.t_last);
}

util::LinearPiece CostModel::OccupancyPiece(const Residency& c,
                                            media::VideoId video,
                                            std::uint64_t tag) const {
  const media::Video& v = catalog_->video(video);
  util::LinearPiece piece;
  piece.t0 = c.t_start;
  piece.t1 = c.t_last;
  piece.t2 = c.t_last + v.playback;
  piece.height = Gamma(c, video) * v.size.value();
  piece.tag = tag;
  return piece;
}

util::Money CostModel::FileCost(const FileSchedule& f) const {
  util::Money total{0.0};
  for (const Delivery& d : f.deliveries) total += DeliveryCost(d, f.video);
  for (const Residency& c : f.residencies) total += ResidencyCost(c, f.video);
  return total;
}

util::Money CostModel::TotalCost(const Schedule& s) const {
  util::Money total{0.0};
  for (const FileSchedule& f : s.files) total += FileCost(f);
  return total;
}

}  // namespace vor::core
