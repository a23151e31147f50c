// "vor-bin/1" — versioned binary container for traces, schedules, and
// service snapshots (docs/FORMATS.md has the byte-level layout).
//
//   magic "VORB" | varint container_version (=1) | varint kind
//   repeated sections: varint tag (>=1) | varint payload_len | payload
//   end marker: varint 0
//   trailer: u32 little-endian CRC-32 (IEEE) over every preceding byte
//
// Integers are unsigned LEB128 varints; doubles are IEEE-754 bit
// patterns written little-endian, so the format is endianness-pinned
// and round-trips exactly.  Readers skip sections with unknown tags
// (forward compatibility) and reject unknown container versions, bad
// magic, truncation, and CRC mismatches with error Results.  Section
// payloads are length-prefixed and bounded, so a streaming consumer
// (workload::TraceStream) holds at most one chunk in memory.
//
// Record shapes come from io/schema.hpp — the same visitors that drive
// the JSON codec — so the two formats cannot drift.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "util/result.hpp"
#include "workload/request.hpp"

namespace vor::io {

inline constexpr char kBinaryMagic[4] = {'V', 'O', 'R', 'B'};
inline constexpr std::uint64_t kBinaryVersion = 1;

/// Top-level document discriminator (the binary twin of "kind").
enum class BinaryKind : std::uint64_t {
  kTrace = 1,
  kSchedule = 2,
  kSnapshot = 3,
};

/// Section tags.  0 is reserved for the end marker.  Chunked sections
/// may repeat; consumers append in file order.
inline constexpr std::uint64_t kSecEnd = 0;
inline constexpr std::uint64_t kSecTraceChunk = 1;      ///< varint n + Request*n
inline constexpr std::uint64_t kSecSchedule = 2;        ///< whole Schedule
inline constexpr std::uint64_t kSecSvcMeta = 3;         ///< varint cycle_index
inline constexpr std::uint64_t kSecCommittedChunk = 4;  ///< varint n + Request*n
inline constexpr std::uint64_t kSecDeferredChunk = 5;   ///< varint n + Stamped*n
inline constexpr std::uint64_t kSecPendingChunk = 6;    ///< varint n + Stamped*n

/// Records per chunk section written by the chunked encoders.  Bounds a
/// streaming reader's working set; any chunking (including none) is
/// accepted on read.
inline constexpr std::size_t kTraceChunkRecords = 4096;

/// Hard cap on a single section payload, so hostile length prefixes
/// cannot force a huge allocation before the CRC is ever checked.
inline constexpr std::uint64_t kMaxSectionPayload = 1ull << 30;

/// A section payload is read in steps of at most this many bytes, and
/// its buffer grows only as bytes arrive: a declared length the input
/// does not back costs at most one step of memory before the read fails.
inline constexpr std::size_t kSectionReadStep = std::size_t{1} << 20;

/// Incremental CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320), eight
/// bytes per step through 8x256 lookup tables ("slicing-by-8").
class Crc32 {
 public:
  void Update(const char* data, std::size_t n);
  [[nodiscard]] std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// Most bytes one varint takes.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Most bytes a document adds outside its sections (magic, version and
/// kind, end marker, CRC), and around each section's payload (its tag
/// and length).
inline constexpr std::size_t kMaxDocumentOverhead =
    sizeof kBinaryMagic + 3 * kMaxVarintBytes + 4;
inline constexpr std::size_t kMaxSectionOverhead = 2 * kMaxVarintBytes;

/// Writes an unsigned LEB128 varint (7 bits per byte, low group first,
/// high bit = continuation) at dst, which has room for kMaxVarintBytes;
/// returns the count written.
inline std::size_t EncodeVarint(char* dst, std::uint64_t v) {
  std::size_t n = 0;
  while (v >= 0x80) {
    dst[n++] = static_cast<char>(0x80u | (v & 0x7Fu));
    v >>= 7;
  }
  dst[n++] = static_cast<char>(v);
  return n;
}

/// Writes an IEEE-754 double as its 8-byte little-endian bit pattern.
inline void EncodeF64(char* dst, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    dst[i] = static_cast<char>((bits >> (8 * i)) & 0xFFu);
  }
}

/// Bytes EncodeVarint writes for v.
inline std::size_t VarintBytes(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1u)) + 6) / 7;
}

/// Appends one varint / one double to `out` (one append each).
void AppendVarint(std::string& out, std::uint64_t v);
void AppendF64(std::string& out, double v);

/// Pull-based byte supplier for streaming reads: fill up to n bytes at
/// dst, return the count actually filled (0 = end of input).  Lets the
/// whole-buffer decoders and the file-streaming TraceStream share one
/// reader.
using ByteSource = std::function<std::size_t(char*, std::size_t)>;

/// Wraps a complete in-memory buffer as a ByteSource.
[[nodiscard]] ByteSource BufferSource(const std::string& buffer);

/// Container-level writer.  Emits the header on construction, buffers
/// one section at a time, and maintains the running CRC; Finish() seals
/// the document with the end marker and trailer.  Encoders append a
/// section's payload straight into payload(), and EndSection hands that
/// buffer to the sink once, so each payload byte is copied only there.
class BinaryWriter {
 public:
  using Sink = std::function<void(const char*, std::size_t)>;

  BinaryWriter(Sink sink, BinaryKind kind);

  void BeginSection(std::uint64_t tag);
  /// The open section's payload; only valid between BeginSection and
  /// EndSection.
  [[nodiscard]] std::string& payload() { return section_; }
  void EndSection();
  /// End marker + CRC trailer.  No writes may follow.
  void Finish();

 private:
  void Emit(const char* data, std::size_t n);

  Sink sink_;
  Crc32 crc_;
  std::string section_;
  std::uint64_t tag_ = kSecEnd;
  bool in_section_ = false;
  bool finished_ = false;
};

/// One decoded section: tag + raw payload bytes.
struct BinarySection {
  std::uint64_t tag = kSecEnd;
  std::string payload;
};

/// Container-level reader over a ByteSource.  Verifies magic, version,
/// kind, per-section length bounds, and the CRC trailer (checked when
/// the end marker is reached).
class BinaryReader {
 public:
  explicit BinaryReader(ByteSource source);

  /// Reads and validates the container header.
  [[nodiscard]] util::Status ReadHeader(BinaryKind expected);

  /// Reads the next section.  Returns false once the end marker and CRC
  /// trailer have been consumed and verified (also checking that no
  /// trailing bytes follow).  Unknown tags are returned to the caller,
  /// which should skip them.
  [[nodiscard]] util::Result<bool> NextSection(BinarySection& out);

 private:
  [[nodiscard]] util::Result<std::uint64_t> ReadVarint();
  /// Reads exactly n bytes into dst; error on truncation.
  [[nodiscard]] util::Status ReadExact(char* dst, std::size_t n);

  ByteSource source_;
  Crc32 crc_;
  bool done_ = false;
};

/// Sequential decoder over one section's payload.
class PayloadReader {
 public:
  explicit PayloadReader(const std::string& payload) : payload_(payload) {}

  [[nodiscard]] util::Result<std::uint64_t> Varint();
  [[nodiscard]] util::Result<double> F64();
  [[nodiscard]] bool AtEnd() const { return pos_ == payload_.size(); }

 private:
  const std::string& payload_;
  std::size_t pos_ = 0;
};

// ---- schema visitors -----------------------------------------------------

/// Binary field writer for the io/schema.hpp record shapes.  Fields are
/// positional on the wire, so the JSON key argument is ignored.  Values
/// are encoded into a small block that goes to `out` in one append when
/// it fills and at Flush, so a payload costs one string append per
/// block, not one per value.  Nothing else may append to `out` until
/// Flush; counts between records go through Varint.
class BinaryFieldWriter {
 public:
  explicit BinaryFieldWriter(std::string& out) : out_(out) {}
  BinaryFieldWriter(const BinaryFieldWriter&) = delete;
  BinaryFieldWriter& operator=(const BinaryFieldWriter&) = delete;

  void Id(const char* /*key*/, std::uint32_t v) { Varint(v); }
  void Time(const char* /*key*/, util::Seconds v) {
    Room(8);
    EncodeF64(block_ + used_, v.value());
    used_ += 8;
  }
  void IdList(const char* /*key*/, std::span<const net::NodeId> ids) {
    Varint(ids.size());
    for (const net::NodeId id : ids) Varint(id);
  }
  void IndexList(const char* /*key*/, std::span<const std::size_t> xs) {
    Varint(xs.size());
    for (const std::size_t x : xs) Varint(x);
  }
  /// core::kNoRequest encodes as varint 0; anything else as index + 1.
  void OptIndex(const char* /*key*/, std::size_t v) {
    Varint(v == core::kNoRequest ? 0 : std::uint64_t{v} + 1);
  }
  void Varint(std::uint64_t v) {
    Room(kMaxVarintBytes);
    used_ += EncodeVarint(block_ + used_, v);
  }
  /// Appends the staged bytes to `out`; call it before anything else
  /// reads or appends to `out`.
  void Flush() {
    out_.append(block_, used_);
    used_ = 0;
  }

 private:
  void Room(std::size_t n) {
    if (sizeof block_ - used_ < n) Flush();
  }

  std::string& out_;
  std::size_t used_ = 0;
  char block_[256] = {};
};

/// Counts the bytes a BinaryFieldWriter writes for the same calls, so an
/// encoder can size its buffers before writing.
struct BinaryFieldSizer {
  std::size_t bytes = 0;

  void Id(const char* /*key*/, std::uint32_t v) { Varint(v); }
  void Time(const char* /*key*/, util::Seconds /*v*/) { bytes += 8; }
  void IdList(const char* /*key*/, std::span<const net::NodeId> ids) {
    Varint(ids.size());
    for (const net::NodeId id : ids) Varint(id);
  }
  void IndexList(const char* /*key*/, std::span<const std::size_t> xs) {
    Varint(xs.size());
    for (const std::size_t x : xs) Varint(x);
  }
  void OptIndex(const char* /*key*/, std::size_t v) {
    Varint(v == core::kNoRequest ? 0 : std::uint64_t{v} + 1);
  }
  void Varint(std::uint64_t v) { bytes += VarintBytes(v); }
};

/// Binary field reader; the first decode failure latches into `status`
/// and later fields become no-ops, so callers check once per record.
struct BinaryFieldReader {
  PayloadReader& in;
  util::Status status = util::Status::Ok();

  void Id(const char* key, std::uint32_t& v);
  void Time(const char* key, util::Seconds& v);
  void IdList(const char* key, net::Route& ids);
  void IndexList(const char* key, std::vector<std::size_t>& xs);
  void OptIndex(const char* key, std::size_t& v);
};

// ---- record codecs (shared with TraceStream and svc/snapshot) ----------

/// Decodes one Request record (schema::VisitRequest shape).
[[nodiscard]] util::Result<workload::Request> ReadRequestRecord(
    PayloadReader& in);

/// Writes a request chunk section (varint count + records); used by the
/// trace and committed sections.
void WriteRequestChunk(BinaryWriter& w, std::uint64_t tag,
                       const workload::Request* requests, std::size_t count);

/// Appends/decodes a whole Schedule as one section payload (appended
/// straight into a BinaryWriter's payload()).
void AppendSchedulePayload(std::string& payload,
                           const core::Schedule& schedule);
/// The byte count AppendSchedulePayload appends.
[[nodiscard]] std::size_t SchedulePayloadBytes(const core::Schedule& schedule);
[[nodiscard]] util::Result<core::Schedule> ReadSchedulePayload(
    const std::string& payload);

// ---- whole-document codecs ---------------------------------------------

[[nodiscard]] std::string TraceToBinary(
    const std::vector<workload::Request>& requests);
[[nodiscard]] util::Result<std::vector<workload::Request>> TraceFromBinary(
    const std::string& buffer);

[[nodiscard]] std::string ScheduleToBinary(const core::Schedule& schedule);
[[nodiscard]] util::Result<core::Schedule> ScheduleFromBinary(
    const std::string& buffer);

/// True when the buffer starts with the vor-bin magic — format sniffing
/// for paths that accept either JSON/CSV or binary input.
[[nodiscard]] bool LooksBinary(const std::string& buffer);

/// Parses just the container header and returns the document kind
/// (magic/version validated).  Used by `vorctl convert` to dispatch.
[[nodiscard]] util::Result<BinaryKind> SniffBinaryKind(
    const std::string& buffer);

}  // namespace vor::io
