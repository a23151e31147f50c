// The cost model Psi of Sec. 2.2: maps a service schedule to money.
//
//   Psi(S) = sum_i Psi_D(d_i) + sum_i Psi_C(c_i)
//
// Network (Sec. 2.2.2): a delivery's amortized traffic is P_id * B_id
// bytes; on the per-hop basis it is charged the sum of link nrates along
// its route, on the end-to-end basis a single origin->destination rate.
//
// Storage (Sec. 2.2.1): a residency with caching interval [t_s, t_f] and
// playback length P costs
//     long  (t_f - t_s >= P):  srate * size * ((t_f - t_s) + P/2)   (Eq. 2)
//     short (t_f - t_s <  P):  srate * size * g * ((t_f - t_s) + P/2),
//                              g = (t_f - t_s)/P                    (Eq. 3)
// i.e. the charging integral of the reserved-space profile f_c(t) of
// Eq. (6): a plateau of g*size over [t_s, t_f] followed by a linear drain
// to zero over the last service's playback.  (Eq. 3 is illegible in the
// published scan; this reconstruction is validated to the cent against
// the paper's worked example of Sec. 3.2 — see DESIGN.md.)
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "core/schedule.hpp"
#include "media/catalog.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/piecewise.hpp"
#include "util/units.hpp"

namespace vor::core {

enum class PricingBasis : std::uint8_t {
  /// Route cost = sum of link nrates (first form of Eq. 4).
  kPerHop,
  /// Route cost = matrix rate between origin and destination (second form
  /// of Eq. 4), here derived from the cheapest-path sum with a sub-additive
  /// hop discount.
  kEndToEnd,
};

struct PricingOptions {
  PricingBasis basis = PricingBasis::kPerHop;
  /// End-to-end basis only: rate(i,j) = per-hop-sum * discount^(hops-1).
  double e2e_discount = 1.0;
};

class CostModel {
 public:
  CostModel(const net::Topology& topology, const net::Router& router,
            const media::Catalog& catalog, PricingOptions pricing = {});

  // -- network ---------------------------------------------------------

  /// Charging rate of an explicit route under the configured basis.
  [[nodiscard]] util::NetworkRate RouteRate(
      std::span<const net::NodeId> route) const;

  /// Cheapest-route charging rate between two nodes under the basis.
  [[nodiscard]] util::NetworkRate RouteRate(net::NodeId from, net::NodeId to) const;

  /// Per-record calls take the title of the file holding the record.
  [[nodiscard]] util::Money DeliveryCost(const Delivery& d,
                                         media::VideoId video) const;

  // -- storage ---------------------------------------------------------

  /// The max-space coefficient g of Eq. (7): 1 for long residencies,
  /// (t_f - t_s)/P for short ones.
  [[nodiscard]] double Gamma(const Residency& c, media::VideoId video) const;

  [[nodiscard]] util::Money ResidencyCost(const Residency& c,
                                          media::VideoId video) const;

  /// Storage cost of a hypothetical residency at `location` over
  /// [t_start, t_last] for `video` — used for incremental cost evaluation
  /// without materializing Residency objects.
  [[nodiscard]] util::Money ResidencyCostAt(net::NodeId location,
                                            media::VideoId video,
                                            util::Seconds t_start,
                                            util::Seconds t_last) const;

  /// Reserved-space profile of the residency (Eq. 6): plateau g*size over
  /// [t_s, t_f], linear drain to 0 over [t_f, t_f + P].
  [[nodiscard]] util::LinearPiece OccupancyPiece(const Residency& c,
                                                 media::VideoId video,
                                                 std::uint64_t tag) const;

  // -- aggregates ------------------------------------------------------

  [[nodiscard]] util::Money FileCost(const FileSchedule& f) const;
  [[nodiscard]] util::Money TotalCost(const Schedule& s) const;

  /// Amortized network bytes of one delivery of `video`: P_id * B_id.
  [[nodiscard]] util::Bytes StreamBytes(media::VideoId video) const;

  [[nodiscard]] const net::Topology& topology() const { return *topology_; }
  [[nodiscard]] const net::Router& router() const { return *router_; }
  [[nodiscard]] const media::Catalog& catalog() const { return *catalog_; }
  [[nodiscard]] const PricingOptions& pricing() const { return pricing_; }

 private:
  [[nodiscard]] util::NetworkRate LinkRate(net::NodeId a, net::NodeId b) const;

  const net::Topology* topology_;
  const net::Router* router_;
  const media::Catalog* catalog_;
  PricingOptions pricing_;
  /// Cheapest link rate between adjacent node pairs, keyed a<<32|b.
  std::unordered_map<std::uint64_t, double> link_rate_;
  /// End-to-end matrix (only when basis == kEndToEnd).
  std::vector<std::vector<util::NetworkRate>> e2e_;
};

}  // namespace vor::core
