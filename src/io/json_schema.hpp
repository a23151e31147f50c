// JSON field visitors for the io/schema.hpp record shapes.
//
// These are the "vor/1" twins of io::BinaryFieldWriter/Reader: the same
// VisitX calls that lay out binary records produce and consume the JSON
// object fields, so a field added to schema.hpp lands in both formats
// or in neither.  Readers are lenient the way the historical
// hand-written parsers were — missing or wrong-typed scalar fields keep
// the record's default value — but wrong-typed or out-of-range arrays
// and indices latch an error Status instead of invoking UB via
// unchecked double→integer casts.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace vor::io {

struct JsonFieldWriter {
  util::JsonObject& obj;

  void Id(const char* key, std::uint32_t v) { obj[key] = v; }
  void Time(const char* key, util::Seconds v) { obj[key] = v.value(); }
  void IdList(const char* key, std::span<const net::NodeId> ids) {
    util::JsonArray arr;
    arr.reserve(ids.size());
    for (const net::NodeId id : ids) arr.emplace_back(id);
    obj[key] = std::move(arr);
  }
  void IndexList(const char* key, const std::vector<std::size_t>& xs) {
    util::JsonArray arr;
    arr.reserve(xs.size());
    for (const std::size_t x : xs) arr.emplace_back(x);
    obj[key] = std::move(arr);
  }
  void OptIndex(const char* key, std::size_t v) {
    if (v != core::kNoRequest) obj[key] = v;
  }
};

struct JsonFieldReader {
  const util::Json& obj;
  util::Status status = util::Status::Ok();

  /// Doubles outside [0, 2^32) map to the all-ones id (net::kInvalidNode
  /// territory) so downstream validation rejects them; the old code's
  /// raw static_cast was undefined behavior for those inputs.
  static std::uint32_t ToId(double d) {
    if (d >= 0.0 && d <= 4294967295.0) return static_cast<std::uint32_t>(d);
    return std::numeric_limits<std::uint32_t>::max();
  }

  void Id(const char* key, std::uint32_t& v) {
    const util::Json& f = obj[key];
    if (f.is_number()) v = ToId(f.as_number());
  }
  void Time(const char* key, util::Seconds& v) {
    const util::Json& f = obj[key];
    if (f.is_number()) v = util::Seconds{f.as_number()};
  }
  void IdList(const char* key, net::Route& ids) {
    if (!status.ok()) return;
    const util::Json& f = obj[key];
    if (!f.is_array()) {
      status = util::InvalidArgument(std::string("'") + key +
                                     "' must be an array of ids");
      return;
    }
    ids.clear();
    ids.reserve(f.as_array().size());
    for (const util::Json& n : f.as_array()) {
      if (!n.is_number()) {
        status = util::InvalidArgument(std::string("'") + key +
                                       "' entries must be node ids");
        return;
      }
      ids.push_back(ToId(n.as_number()));
    }
  }
  void IndexList(const char* key, std::vector<std::size_t>& xs) {
    if (!status.ok()) return;
    const util::Json& f = obj[key];
    if (f.is_null()) return;  // absent list = empty (historical)
    if (!f.is_array()) {
      status = util::InvalidArgument(std::string("'") + key +
                                     "' must be an array of request indices");
      return;
    }
    xs.clear();
    xs.reserve(f.as_array().size());
    for (const util::Json& n : f.as_array()) {
      std::size_t x = 0;
      if (!n.is_number() || !ToIndex(n.as_number(), x)) {
        status = util::InvalidArgument(std::string("'") + key +
                                       "' entries must be request indices");
        return;
      }
      xs.push_back(x);
    }
  }
  void OptIndex(const char* key, std::size_t& v) {
    if (!status.ok()) return;
    const util::Json& f = obj[key];
    if (!f.is_number()) {
      v = core::kNoRequest;  // absent = unbound delivery
      return;
    }
    if (!ToIndex(f.as_number(), v)) {
      status = util::InvalidArgument(std::string("'") + key +
                                     "' index out of range");
    }
  }

 private:
  /// Request indices must be exact: doubles beyond 2^53 or negative are
  /// refused rather than silently rounded.
  static bool ToIndex(double d, std::size_t& out) {
    if (!(d >= 0.0) || d > 9007199254740992.0) return false;
    out = static_cast<std::size_t>(d);
    return true;
  }
};

}  // namespace vor::io
