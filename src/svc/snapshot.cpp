#include "svc/snapshot.hpp"

#include <algorithm>
#include <string>

#include "io/binary.hpp"
#include "io/json_schema.hpp"
#include "io/schema.hpp"
#include "io/serialize.hpp"
#include "util/json.hpp"

namespace vor::svc {

namespace {

constexpr const char* kFormatVersion = "vor-svc/1";

util::Json StampedToJson(const StampedRequest& s) {
  util::JsonObject obj;
  io::JsonFieldWriter writer{obj};
  io::schema::VisitStamped(writer, s);
  return obj;
}

util::Result<std::vector<StampedRequest>> StampedFromJson(
    const util::Json& j, const std::string& what) {
  if (!j.is_array()) {
    return util::InvalidArgument("service snapshot needs a '" + what +
                                 "' array");
  }
  std::vector<StampedRequest> out;
  out.reserve(j.as_array().size());
  for (const util::Json& item : j.as_array()) {
    if (!item.is_object()) {
      return util::InvalidArgument("'" + what + "' entries must be objects");
    }
    StampedRequest s;
    io::JsonFieldReader reader{item};
    io::schema::VisitStamped(reader, s);
    if (!reader.status.ok()) return reader.status.error();
    out.push_back(s);
  }
  return out;
}

}  // namespace

util::Json SnapshotToJson(const ServiceSnapshot& snapshot) {
  util::JsonObject doc;
  doc["format"] = kFormatVersion;
  doc["kind"] = "service";
  doc["cycle_index"] = snapshot.cycle_index;
  doc["committed"] = io::ToJson(snapshot.committed);
  doc["schedule"] = io::ToJson(snapshot.schedule);
  util::JsonArray deferred;
  for (const StampedRequest& s : snapshot.deferred) {
    deferred.push_back(StampedToJson(s));
  }
  doc["deferred"] = std::move(deferred);
  util::JsonArray pending;
  for (const StampedRequest& s : snapshot.pending) {
    pending.push_back(StampedToJson(s));
  }
  doc["pending"] = std::move(pending);
  return doc;
}

util::Result<ServiceSnapshot> SnapshotFromJson(const util::Json& j) {
  if (!j.is_object()) {
    return util::InvalidArgument("service snapshot must be a JSON object");
  }
  if (j.GetString("format", "") != kFormatVersion) {
    return util::InvalidArgument("unknown or missing format (want " +
                                 std::string(kFormatVersion) + ")");
  }
  if (j.GetString("kind", "") != "service") {
    return util::InvalidArgument("expected kind 'service', got '" +
                                 j.GetString("kind", "") + "'");
  }
  const util::Json& index = j["cycle_index"];
  if (!index.is_number() || index.as_number() < 0.0) {
    return util::InvalidArgument("snapshot needs a non-negative cycle_index");
  }

  ServiceSnapshot snapshot;
  try {
    snapshot.cycle_index = index.as_uint64();
  } catch (const std::bad_variant_access&) {
    return util::InvalidArgument("snapshot cycle_index out of range");
  }
  auto committed = io::RequestsFromJson(j["committed"]);
  if (!committed.ok()) return committed.error();
  snapshot.committed = std::move(*committed);
  auto schedule = io::ScheduleFromJson(j["schedule"]);
  if (!schedule.ok()) return schedule.error();
  snapshot.schedule = std::move(*schedule);
  auto deferred = StampedFromJson(j["deferred"], "deferred");
  if (!deferred.ok()) return deferred.error();
  snapshot.deferred = std::move(*deferred);
  auto pending = StampedFromJson(j["pending"], "pending");
  if (!pending.ok()) return pending.error();
  snapshot.pending = std::move(*pending);
  return snapshot;
}

// ---- binary --------------------------------------------------------------

namespace {

void WriteStampedChunks(io::BinaryWriter& writer, std::uint64_t tag,
                        const std::vector<StampedRequest>& items) {
  for (std::size_t begin = 0; begin < items.size();
       begin += io::kTraceChunkRecords) {
    const std::size_t count =
        std::min(io::kTraceChunkRecords, items.size() - begin);
    writer.BeginSection(tag);
    io::BinaryFieldWriter out(writer.payload());
    out.Varint(count);
    for (std::size_t i = 0; i < count; ++i) {
      io::schema::VisitStamped(out, items[begin + i]);
    }
    out.Flush();
    writer.EndSection();
  }
}

util::Status ReadStampedChunk(const std::string& payload,
                              std::vector<StampedRequest>& out) {
  io::PayloadReader in(payload);
  const auto count = in.Varint();
  if (!count.ok()) return count.error();
  for (std::uint64_t i = 0; i < *count; ++i) {
    StampedRequest s;
    io::BinaryFieldReader reader{in};
    io::schema::VisitStamped(reader, s);
    if (!reader.status.ok()) return reader.status;
    out.push_back(s);
  }
  if (!in.AtEnd()) {
    return util::InvalidArgument("vor-bin: trailing bytes in stamped chunk");
  }
  return util::Status::Ok();
}

util::Status ReadRequestChunk(const std::string& payload,
                              std::vector<workload::Request>& out) {
  io::PayloadReader in(payload);
  const auto count = in.Varint();
  if (!count.ok()) return count.error();
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto r = io::ReadRequestRecord(in);
    if (!r.ok()) return r.error();
    out.push_back(*r);
  }
  if (!in.AtEnd()) {
    return util::InvalidArgument("vor-bin: trailing bytes in request chunk");
  }
  return util::Status::Ok();
}

}  // namespace

std::string SnapshotToBinary(const ServiceSnapshot& snapshot) {
  // Size the document and its schedule section before writing them:
  // grown by doubling, a multi-megabyte string touches about twice its
  // size in fresh pages, which costs more than this counting pass.
  io::BinaryFieldSizer records;
  for (const workload::Request& r : snapshot.committed) {
    io::schema::VisitRequest(records, r);
  }
  for (const std::vector<StampedRequest>* stamped :
       {&snapshot.deferred, &snapshot.pending}) {
    for (const StampedRequest& s : *stamped) {
      io::schema::VisitStamped(records, s);
    }
  }
  const std::size_t schedule_bytes =
      io::SchedulePayloadBytes(snapshot.schedule);
  const auto chunks = [](std::size_t n) {
    return (n + io::kTraceChunkRecords - 1) / io::kTraceChunkRecords;
  };
  // Every section but the schedule's leads with one varint (a count or
  // the cycle index).
  const std::size_t sections = 2 + chunks(snapshot.committed.size()) +
                               chunks(snapshot.deferred.size()) +
                               chunks(snapshot.pending.size());
  std::string out;
  out.reserve(io::kMaxDocumentOverhead + records.bytes + schedule_bytes +
              sections * (io::kMaxSectionOverhead + io::kMaxVarintBytes));
  io::BinaryWriter writer(
      [&out](const char* data, std::size_t n) { out.append(data, n); },
      io::BinaryKind::kSnapshot);
  writer.BeginSection(io::kSecSvcMeta);
  io::AppendVarint(writer.payload(), snapshot.cycle_index);
  writer.EndSection();
  for (std::size_t begin = 0; begin < snapshot.committed.size();
       begin += io::kTraceChunkRecords) {
    const std::size_t count =
        std::min(io::kTraceChunkRecords, snapshot.committed.size() - begin);
    io::WriteRequestChunk(writer, io::kSecCommittedChunk,
                          snapshot.committed.data() + begin, count);
  }
  writer.BeginSection(io::kSecSchedule);
  writer.payload().reserve(schedule_bytes);
  io::AppendSchedulePayload(writer.payload(), snapshot.schedule);
  writer.EndSection();
  WriteStampedChunks(writer, io::kSecDeferredChunk, snapshot.deferred);
  WriteStampedChunks(writer, io::kSecPendingChunk, snapshot.pending);
  writer.Finish();
  return out;
}

util::Result<ServiceSnapshot> SnapshotFromBinary(const std::string& buffer) {
  io::BinaryReader reader(io::BufferSource(buffer));
  if (const util::Status s = reader.ReadHeader(io::BinaryKind::kSnapshot);
      !s.ok()) {
    return s.error();
  }
  ServiceSnapshot snapshot;
  bool seen_meta = false;
  bool seen_schedule = false;
  io::BinarySection section;
  for (;;) {
    const auto more = reader.NextSection(section);
    if (!more.ok()) return more.error();
    if (!*more) break;
    switch (section.tag) {
      case io::kSecSvcMeta: {
        if (seen_meta) {
          return util::InvalidArgument("vor-bin: duplicate svc-meta section");
        }
        io::PayloadReader in(section.payload);
        const auto index = in.Varint();
        if (!index.ok()) return index.error();
        if (!in.AtEnd()) {
          return util::InvalidArgument(
              "vor-bin: trailing bytes in svc-meta section");
        }
        snapshot.cycle_index = *index;
        seen_meta = true;
        break;
      }
      case io::kSecCommittedChunk: {
        if (const util::Status s =
                ReadRequestChunk(section.payload, snapshot.committed);
            !s.ok()) {
          return s.error();
        }
        break;
      }
      case io::kSecSchedule: {
        if (seen_schedule) {
          return util::InvalidArgument("vor-bin: duplicate schedule section");
        }
        auto schedule = io::ReadSchedulePayload(section.payload);
        if (!schedule.ok()) return schedule.error();
        snapshot.schedule = std::move(*schedule);
        seen_schedule = true;
        break;
      }
      case io::kSecDeferredChunk: {
        if (const util::Status s =
                ReadStampedChunk(section.payload, snapshot.deferred);
            !s.ok()) {
          return s.error();
        }
        break;
      }
      case io::kSecPendingChunk: {
        if (const util::Status s =
                ReadStampedChunk(section.payload, snapshot.pending);
            !s.ok()) {
          return s.error();
        }
        break;
      }
      default:
        break;  // unknown section: skip (forward compatibility)
    }
  }
  if (!seen_meta || !seen_schedule) {
    return util::InvalidArgument(
        "vor-bin: snapshot missing svc-meta or schedule section");
  }
  return snapshot;
}

util::Result<ServiceSnapshot> SnapshotFromBytes(const std::string& buffer) {
  if (io::LooksBinary(buffer)) return SnapshotFromBinary(buffer);
  auto doc = util::Json::Parse(buffer);
  if (!doc.ok()) return doc.error();
  return SnapshotFromJson(*doc);
}

}  // namespace vor::svc
