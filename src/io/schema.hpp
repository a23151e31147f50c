// Shared record-shape visitors for the JSON and binary codecs.
//
// Each VisitX function below is the single authoritative statement of a
// record's field list and field order.  Both codecs — the "vor/1" JSON
// documents in io/serialize + svc/snapshot and the "vor-bin/1" container
// in io/binary — drive their readers and writers through these visitors,
// so adding, renaming, or reordering a field is one edit and the two
// formats cannot drift apart.
//
// Visitor contract (duck-typed; writers take values or spans, readers
// take mutable references):
//
//   void Id(const char* key, u32)            ids + small counts
//   void Time(const char* key, util::Seconds) time points
//   void IdList(const char* key, net::Route)  a route's node ids
//   void IndexList(const char* key, std::vector<std::size_t>)
//   void OptIndex(const char* key, std::size_t)  core::kNoRequest = absent
//
// The key argument is the JSON field name; binary visitors ignore it
// (fields are positional on the wire), which is exactly why the order
// here is load-bearing.
#pragma once

#include "core/schedule.hpp"

namespace vor::io::schema {

/// workload::Request.
template <class Visitor, class RequestT>
void VisitRequest(Visitor& v, RequestT& r) {
  v.Id("user", r.user);
  v.Id("video", r.video);
  v.Time("start_sec", r.start_time);
  v.Id("neighborhood", r.neighborhood);
}

/// svc::StampedRequest (templated over the struct shape so io does not
/// depend on svc; any type with .request/.arrival/.deferrals fits).
template <class Visitor, class StampedT>
void VisitStamped(Visitor& v, StampedT& s) {
  VisitRequest(v, s.request);
  v.Time("arrival_sec", s.arrival);
  v.Id("deferrals", s.deferrals);
}

/// core::Delivery.  Its title is the enclosing FileSchedule's.
template <class Visitor, class DeliveryT>
void VisitDelivery(Visitor& v, DeliveryT& d) {
  v.IdList("route", d.route);
  v.Time("start_sec", d.start);
  v.OptIndex("request", d.request_index);
}

/// core::Residency.  Like Delivery, its title is the enclosing file's.
template <class Visitor, class ResidencyT>
void VisitResidency(Visitor& v, ResidencyT& c) {
  v.Id("location", c.location);
  v.Id("source", c.source);
  v.Time("t_start_sec", c.t_start);
  v.Time("t_last_sec", c.t_last);
  v.IndexList("services", c.services);
}

}  // namespace vor::io::schema
