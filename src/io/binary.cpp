#include "io/binary.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>

#include "io/schema.hpp"

namespace vor::io {

// ---- CRC-32 --------------------------------------------------------------

namespace {

/// kCrcTables[0] is the classic byte table; kCrcTables[k][b] is the CRC
/// of byte b followed by k zero bytes, so eight table reads fold eight
/// input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

/// Little-endian load by shift-or, so the result does not depend on the
/// host's byte order (compilers fold it into one load on x86).
std::uint32_t LoadLe32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

}  // namespace

void Crc32::Update(const char* data, std::size_t n) {
  const CrcTables& t = kCrcTables;
  std::uint32_t c = state_;
  for (; n >= 8; data += 8, n -= 8) {
    const std::uint32_t lo = LoadLe32(data) ^ c;
    const std::uint32_t hi = LoadLe32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    c = t[0][(c ^ static_cast<unsigned char>(*data)) & 0xFFu] ^ (c >> 8);
  }
  state_ = c;
}

// ---- primitives ----------------------------------------------------------

void AppendVarint(std::string& out, std::uint64_t v) {
  char bytes[kMaxVarintBytes];
  out.append(bytes, EncodeVarint(bytes, v));
}

void AppendF64(std::string& out, double v) {
  char bytes[8];
  EncodeF64(bytes, v);
  out.append(bytes, sizeof bytes);
}

ByteSource BufferSource(const std::string& buffer) {
  // Captures the buffer by reference: callers keep it alive for the
  // reader's lifetime (the whole-document decoders do so by scope).
  return [&buffer, pos = std::size_t{0}](char* dst,
                                         std::size_t n) mutable -> std::size_t {
    const std::size_t take = std::min(n, buffer.size() - pos);
    std::memcpy(dst, buffer.data() + pos, take);
    pos += take;
    return take;
  };
}

// ---- writer --------------------------------------------------------------

BinaryWriter::BinaryWriter(Sink sink, BinaryKind kind)
    : sink_(std::move(sink)) {
  std::string header(kBinaryMagic, sizeof kBinaryMagic);
  AppendVarint(header, kBinaryVersion);
  AppendVarint(header, static_cast<std::uint64_t>(kind));
  Emit(header.data(), header.size());
}

void BinaryWriter::Emit(const char* data, std::size_t n) {
  crc_.Update(data, n);
  sink_(data, n);
}

void BinaryWriter::BeginSection(std::uint64_t tag) {
  in_section_ = true;
  tag_ = tag;
  section_.clear();
}

void BinaryWriter::EndSection() {
  std::string prefix;
  AppendVarint(prefix, tag_);
  AppendVarint(prefix, section_.size());
  Emit(prefix.data(), prefix.size());
  Emit(section_.data(), section_.size());
  in_section_ = false;
  section_.clear();
}

void BinaryWriter::Finish() {
  if (finished_) return;
  std::string marker;
  AppendVarint(marker, kSecEnd);
  Emit(marker.data(), marker.size());
  // The CRC covers everything up to and including the end marker; the
  // trailer itself is written raw.
  const std::uint32_t crc = crc_.value();
  char trailer[4];
  for (int i = 0; i < 4; ++i) {
    trailer[i] = static_cast<char>((crc >> (8 * i)) & 0xFFu);
  }
  sink_(trailer, sizeof trailer);
  finished_ = true;
}

// ---- reader --------------------------------------------------------------

BinaryReader::BinaryReader(ByteSource source) : source_(std::move(source)) {}

util::Status BinaryReader::ReadExact(char* dst, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const std::size_t step = source_(dst + got, n - got);
    if (step == 0) {
      return util::InvalidArgument("vor-bin: truncated input");
    }
    got += step;
  }
  crc_.Update(dst, n);
  return util::Status::Ok();
}

util::Result<std::uint64_t> BinaryReader::ReadVarint() {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    char byte = 0;
    if (const util::Status s = ReadExact(&byte, 1); !s.ok()) return s.error();
    const auto b = static_cast<unsigned char>(byte);
    if (shift == 63 && (b & 0x7Eu) != 0) {
      return util::InvalidArgument("vor-bin: varint overflows 64 bits");
    }
    value |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) return value;
  }
  return util::InvalidArgument("vor-bin: varint too long");
}

util::Status BinaryReader::ReadHeader(BinaryKind expected) {
  char magic[sizeof kBinaryMagic];
  if (const util::Status s = ReadExact(magic, sizeof magic); !s.ok()) return s;
  if (std::memcmp(magic, kBinaryMagic, sizeof magic) != 0) {
    return util::InvalidArgument("vor-bin: bad magic");
  }
  const auto version = ReadVarint();
  if (!version.ok()) return version.error();
  if (*version != kBinaryVersion) {
    return util::InvalidArgument("vor-bin: unknown container version " +
                                 std::to_string(*version));
  }
  const auto kind = ReadVarint();
  if (!kind.ok()) return kind.error();
  if (*kind != static_cast<std::uint64_t>(expected)) {
    return util::InvalidArgument(
        "vor-bin: wrong document kind " + std::to_string(*kind) + " (want " +
        std::to_string(static_cast<std::uint64_t>(expected)) + ")");
  }
  return util::Status::Ok();
}

util::Result<bool> BinaryReader::NextSection(BinarySection& out) {
  if (done_) return false;
  const auto tag = ReadVarint();
  if (!tag.ok()) return tag.error();
  if (*tag == kSecEnd) {
    // The CRC as computed includes the end marker but not the trailer.
    const std::uint32_t computed = crc_.value();
    char trailer[4];
    std::size_t got = 0;
    while (got < sizeof trailer) {
      const std::size_t step = source_(trailer + got, sizeof trailer - got);
      if (step == 0) {
        return util::InvalidArgument("vor-bin: missing CRC trailer");
      }
      got += step;
    }
    std::uint32_t stored = 0;
    for (int i = 0; i < 4; ++i) {
      stored |= static_cast<std::uint32_t>(
                    static_cast<unsigned char>(trailer[i]))
                << (8 * i);
    }
    if (stored != computed) {
      return util::InvalidArgument("vor-bin: CRC mismatch");
    }
    char extra = 0;
    if (source_(&extra, 1) != 0) {
      return util::InvalidArgument("vor-bin: trailing bytes after CRC");
    }
    done_ = true;
    return false;
  }
  const auto len = ReadVarint();
  if (!len.ok()) return len.error();
  if (*len > kMaxSectionPayload) {
    return util::InvalidArgument("vor-bin: section payload too large");
  }
  out.tag = *tag;
  out.payload.clear();
  // Grow with the bytes actually read, not with the declared length: a
  // hostile prefix then fails on truncation after at most one step.
  for (std::size_t left = static_cast<std::size_t>(*len); left > 0;) {
    const std::size_t step = std::min(left, kSectionReadStep);
    const std::size_t at = out.payload.size();
    out.payload.resize(at + step);
    if (const util::Status s = ReadExact(out.payload.data() + at, step);
        !s.ok()) {
      return s.error();
    }
    left -= step;
  }
  return true;
}

// ---- payload reader ------------------------------------------------------

util::Result<std::uint64_t> PayloadReader::Varint() {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    if (pos_ >= payload_.size()) {
      return util::InvalidArgument("vor-bin: truncated section payload");
    }
    const auto b = static_cast<unsigned char>(payload_[pos_++]);
    if (shift == 63 && (b & 0x7Eu) != 0) {
      return util::InvalidArgument("vor-bin: varint overflows 64 bits");
    }
    value |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) return value;
  }
  return util::InvalidArgument("vor-bin: varint too long");
}

util::Result<double> PayloadReader::F64() {
  if (payload_.size() - pos_ < 8) {
    return util::InvalidArgument("vor-bin: truncated section payload");
  }
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(
                static_cast<unsigned char>(payload_[pos_ + i]))
            << (8 * i);
  }
  pos_ += 8;
  return std::bit_cast<double>(bits);
}

// ---- schema visitors -----------------------------------------------------

namespace {

util::Error FieldError(const char* key, const util::Error& cause) {
  return util::Error{cause.code,
                     std::string("field '") + key + "': " + cause.message};
}

}  // namespace

void BinaryFieldReader::Id(const char* key, std::uint32_t& v) {
  if (!status.ok()) return;
  const auto r = in.Varint();
  if (!r.ok()) {
    status = FieldError(key, r.error());
    return;
  }
  if (*r > std::numeric_limits<std::uint32_t>::max()) {
    status = util::InvalidArgument(std::string("field '") + key +
                                   "': id out of 32-bit range");
    return;
  }
  v = static_cast<std::uint32_t>(*r);
}

void BinaryFieldReader::Time(const char* key, util::Seconds& v) {
  if (!status.ok()) return;
  const auto r = in.F64();
  if (!r.ok()) {
    status = FieldError(key, r.error());
    return;
  }
  v = util::Seconds{*r};
}

void BinaryFieldReader::IdList(const char* key, net::Route& ids) {
  if (!status.ok()) return;
  const auto count = in.Varint();
  if (!count.ok()) {
    status = FieldError(key, count.error());
    return;
  }
  // A list can't have more entries than the payload has bytes left; a
  // hostile count fails here instead of reserving gigabytes.
  if (*count > kMaxSectionPayload) {
    status = util::InvalidArgument(std::string("field '") + key +
                                   "': implausible list length");
    return;
  }
  ids.clear();
  ids.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(*count, 4096)));
  for (std::uint64_t i = 0; i < *count && status.ok(); ++i) {
    std::uint32_t id = 0;
    Id(key, id);
    if (status.ok()) ids.push_back(id);
  }
}

void BinaryFieldReader::IndexList(const char* key,
                                  std::vector<std::size_t>& xs) {
  if (!status.ok()) return;
  const auto count = in.Varint();
  if (!count.ok()) {
    status = FieldError(key, count.error());
    return;
  }
  if (*count > kMaxSectionPayload) {
    status = util::InvalidArgument(std::string("field '") + key +
                                   "': implausible list length");
    return;
  }
  xs.clear();
  xs.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(*count, 4096)));
  for (std::uint64_t i = 0; i < *count && status.ok(); ++i) {
    const auto x = in.Varint();
    if (!x.ok()) {
      status = FieldError(key, x.error());
      return;
    }
    xs.push_back(static_cast<std::size_t>(*x));
  }
}

void BinaryFieldReader::OptIndex(const char* key, std::size_t& v) {
  if (!status.ok()) return;
  const auto r = in.Varint();
  if (!r.ok()) {
    status = FieldError(key, r.error());
    return;
  }
  v = *r == 0 ? core::kNoRequest : static_cast<std::size_t>(*r - 1);
}

// ---- record codecs -------------------------------------------------------

util::Result<workload::Request> ReadRequestRecord(PayloadReader& in) {
  workload::Request r;
  BinaryFieldReader reader{in};
  schema::VisitRequest(reader, r);
  if (!reader.status.ok()) return reader.status.error();
  return r;
}

void WriteRequestChunk(BinaryWriter& w, std::uint64_t tag,
                       const workload::Request* requests, std::size_t count) {
  w.BeginSection(tag);
  BinaryFieldWriter out(w.payload());
  out.Varint(count);
  for (std::size_t i = 0; i < count; ++i) {
    schema::VisitRequest(out, requests[i]);
  }
  out.Flush();
  w.EndSection();
}

// ---- schedule ------------------------------------------------------------

namespace {

/// The schedule payload through any field visitor with a Varint method:
/// BinaryFieldWriter writes it, BinaryFieldSizer counts it.
template <class Out>
void VisitSchedulePayload(Out& out, const core::Schedule& schedule) {
  out.Varint(schedule.files.size());
  for (const core::FileSchedule& f : schedule.files) {
    out.Varint(f.video);
    out.Varint(f.deliveries.size());
    for (const core::Delivery& d : f.deliveries) {
      schema::VisitDelivery(out, d);
    }
    out.Varint(f.residencies.size());
    for (const core::Residency& c : f.residencies) {
      schema::VisitResidency(out, c);
    }
  }
}

}  // namespace

void AppendSchedulePayload(std::string& payload,
                           const core::Schedule& schedule) {
  BinaryFieldWriter out(payload);
  VisitSchedulePayload(out, schedule);
  out.Flush();
}

std::size_t SchedulePayloadBytes(const core::Schedule& schedule) {
  BinaryFieldSizer size;
  VisitSchedulePayload(size, schedule);
  return size.bytes;
}

util::Result<core::Schedule> ReadSchedulePayload(const std::string& payload) {
  PayloadReader in(payload);
  const auto file_count = in.Varint();
  if (!file_count.ok()) return file_count.error();
  if (*file_count > kMaxSectionPayload) {
    return util::InvalidArgument("vor-bin: implausible schedule file count");
  }
  core::Schedule schedule;
  schedule.files.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(*file_count, 4096)));
  for (std::uint64_t fi = 0; fi < *file_count; ++fi) {
    core::FileSchedule f;
    const auto video = in.Varint();
    if (!video.ok()) return video.error();
    if (*video > std::numeric_limits<media::VideoId>::max()) {
      return util::InvalidArgument("vor-bin: video id out of range");
    }
    f.video = static_cast<media::VideoId>(*video);
    const auto delivery_count = in.Varint();
    if (!delivery_count.ok()) return delivery_count.error();
    if (*delivery_count > kMaxSectionPayload) {
      return util::InvalidArgument("vor-bin: implausible delivery count");
    }
    for (std::uint64_t di = 0; di < *delivery_count; ++di) {
      core::Delivery d;
      BinaryFieldReader reader{in};
      schema::VisitDelivery(reader, d);
      if (!reader.status.ok()) return reader.status.error();
      f.deliveries.push_back(std::move(d));
    }
    const auto residency_count = in.Varint();
    if (!residency_count.ok()) return residency_count.error();
    if (*residency_count > kMaxSectionPayload) {
      return util::InvalidArgument("vor-bin: implausible residency count");
    }
    for (std::uint64_t ci = 0; ci < *residency_count; ++ci) {
      core::Residency c;
      BinaryFieldReader reader{in};
      schema::VisitResidency(reader, c);
      if (!reader.status.ok()) return reader.status.error();
      f.residencies.push_back(std::move(c));
    }
    schedule.files.push_back(std::move(f));
  }
  if (!in.AtEnd()) {
    return util::InvalidArgument("vor-bin: trailing bytes in schedule section");
  }
  return schedule;
}

// ---- whole documents -----------------------------------------------------

std::string TraceToBinary(const std::vector<workload::Request>& requests) {
  std::string out;
  BinaryWriter writer(
      [&out](const char* data, std::size_t n) { out.append(data, n); },
      BinaryKind::kTrace);
  for (std::size_t begin = 0; begin < requests.size();
       begin += kTraceChunkRecords) {
    const std::size_t count =
        std::min(kTraceChunkRecords, requests.size() - begin);
    WriteRequestChunk(writer, kSecTraceChunk, requests.data() + begin, count);
  }
  writer.Finish();
  return out;
}

util::Result<std::vector<workload::Request>> TraceFromBinary(
    const std::string& buffer) {
  BinaryReader reader(BufferSource(buffer));
  if (const util::Status s = reader.ReadHeader(BinaryKind::kTrace); !s.ok()) {
    return s.error();
  }
  std::vector<workload::Request> out;
  BinarySection section;
  for (;;) {
    const auto more = reader.NextSection(section);
    if (!more.ok()) return more.error();
    if (!*more) break;
    if (section.tag != kSecTraceChunk) continue;  // forward compat
    PayloadReader in(section.payload);
    const auto count = in.Varint();
    if (!count.ok()) return count.error();
    for (std::uint64_t i = 0; i < *count; ++i) {
      auto r = ReadRequestRecord(in);
      if (!r.ok()) return r.error();
      out.push_back(*r);
    }
    if (!in.AtEnd()) {
      return util::InvalidArgument("vor-bin: trailing bytes in trace chunk");
    }
  }
  return out;
}

std::string ScheduleToBinary(const core::Schedule& schedule) {
  std::string out;
  BinaryWriter writer(
      [&out](const char* data, std::size_t n) { out.append(data, n); },
      BinaryKind::kSchedule);
  writer.BeginSection(kSecSchedule);
  AppendSchedulePayload(writer.payload(), schedule);
  writer.EndSection();
  writer.Finish();
  return out;
}

util::Result<core::Schedule> ScheduleFromBinary(const std::string& buffer) {
  BinaryReader reader(BufferSource(buffer));
  if (const util::Status s = reader.ReadHeader(BinaryKind::kSchedule);
      !s.ok()) {
    return s.error();
  }
  bool seen = false;
  core::Schedule schedule;
  BinarySection section;
  for (;;) {
    const auto more = reader.NextSection(section);
    if (!more.ok()) return more.error();
    if (!*more) break;
    if (section.tag != kSecSchedule) continue;
    if (seen) {
      return util::InvalidArgument("vor-bin: duplicate schedule section");
    }
    auto decoded = ReadSchedulePayload(section.payload);
    if (!decoded.ok()) return decoded.error();
    schedule = std::move(*decoded);
    seen = true;
  }
  if (!seen) {
    return util::InvalidArgument("vor-bin: schedule section missing");
  }
  return schedule;
}

bool LooksBinary(const std::string& buffer) {
  return buffer.size() >= sizeof kBinaryMagic &&
         std::memcmp(buffer.data(), kBinaryMagic, sizeof kBinaryMagic) == 0;
}

util::Result<BinaryKind> SniffBinaryKind(const std::string& buffer) {
  // Re-run the header checks by hand: ReadHeader needs an expectation,
  // and here the kind is the answer, not the question.
  if (!LooksBinary(buffer)) {
    return util::InvalidArgument("vor-bin: bad magic");
  }
  const std::string tail = buffer.substr(sizeof kBinaryMagic);
  PayloadReader in(tail);
  const auto version = in.Varint();
  if (!version.ok()) return version.error();
  if (*version != kBinaryVersion) {
    return util::InvalidArgument("vor-bin: unknown container version " +
                                 std::to_string(*version));
  }
  const auto kind = in.Varint();
  if (!kind.ok()) return kind.error();
  switch (*kind) {
    case static_cast<std::uint64_t>(BinaryKind::kTrace):
      return BinaryKind::kTrace;
    case static_cast<std::uint64_t>(BinaryKind::kSchedule):
      return BinaryKind::kSchedule;
    case static_cast<std::uint64_t>(BinaryKind::kSnapshot):
      return BinaryKind::kSnapshot;
    default:
      return util::InvalidArgument("vor-bin: unknown document kind " +
                                   std::to_string(*kind));
  }
}

}  // namespace vor::io
