// "vor-rpc/1" — length-prefixed binary frame protocol that puts the
// reservation service on the wire (docs/FORMATS.md has the byte-level
// layout).
//
//   magic "VRPC"                     4 raw bytes
//   payload_len                      u32 little-endian, <= kMaxFramePayload
//   payload:
//     varint protocol_version (=1)
//     varint message type
//     varint seq (correlation id, echoed in the response)
//     body                           type-specific, may be empty
//   crc32                            u32 little-endian over every
//                                    preceding byte of the frame
//
// The protocol deliberately reuses the "vor-bin/1" primitives from
// io/binary (LEB128 varints, IEEE-754 little-endian doubles, the same
// CRC-32) and drives request records through the io/schema.hpp visitors,
// so the wire format and the file format cannot drift: a Request is
// encoded bit-identically in a trace file and in a submit frame.
//
// Framing is incremental: DecodeFrame() consumes a stream prefix and
// reports kNeedMoreData until a whole frame is buffered, so a reader
// never blocks on a half-written frame and never allocates for a hostile
// length prefix (the bound is checked before the payload is read).
// Every corruption mode — bad magic, unknown version, oversized length,
// CRC mismatch, truncated or trailing body bytes — is a kMalformed
// verdict with a message, never a crash.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "svc/reservation_service.hpp"
#include "util/result.hpp"
#include "util/units.hpp"
#include "workload/request.hpp"

namespace vor::rpc {

inline constexpr char kRpcMagic[4] = {'V', 'R', 'P', 'C'};
inline constexpr std::uint64_t kRpcVersion = 1;

/// Hard cap on a frame payload.  Submit frames are tens of bytes; the
/// cap exists so a hostile length prefix cannot force a huge allocation
/// before the CRC is ever checked (mirrors io::kMaxSectionPayload).
inline constexpr std::size_t kMaxFramePayload = 1u << 20;

/// magic + u32 payload length.
inline constexpr std::size_t kFrameHeaderBytes = 8;
/// u32 CRC trailer.
inline constexpr std::size_t kFrameTrailerBytes = 4;

/// Message types.  Requests are odd-numbered conceptually client->server
/// and each has a dedicated response type; kError may answer anything.
enum class MsgType : std::uint64_t {
  /// Request record + arrival stamp -> kSubmitAck.
  kSubmit = 1,
  /// varint svc::SubmitOutcome.
  kSubmitAck = 2,
  /// Empty body -> kStatusInfo.
  kStatus = 3,
  /// varints cycle_index, pending, deferred, committed_total.
  kStatusInfo = 4,
  /// Empty body -> kCycleStats.  Closes the open cycle (the RPC twin of
  /// the trace replay's window boundary).
  kCycleClose = 5,
  /// Full svc::CycleStats record.
  kCycleStats = 6,
  /// Empty body -> kCycleStats of the most recent close (flag byte says
  /// whether one exists yet).
  kCycleQuery = 7,
  /// Empty body -> kSnapshotAck.  Asks the server to persist its state.
  kSnapshotTrigger = 8,
  /// varint ok + string message (path written or error).
  kSnapshotAck = 9,
  /// Empty body -> kShutdownAck, then the server drains and exits.
  kShutdown = 10,
  kShutdownAck = 11,
  /// varint code + string message.  Sent before the server closes a
  /// connection over a malformed frame, or as the response to a frame it
  /// cannot serve.
  kError = 12,
};

[[nodiscard]] const char* ToString(MsgType type);
[[nodiscard]] bool IsKnownMsgType(std::uint64_t raw);

/// One decoded frame: the correlation id and the type-specific body.
struct Frame {
  MsgType type = MsgType::kError;
  std::uint64_t seq = 0;
  std::string body;
};

/// Serializes a frame (header, payload, CRC trailer).
[[nodiscard]] std::string EncodeFrame(const Frame& frame);

enum class DecodeVerdict : std::uint8_t {
  /// `frame` is valid and `consumed` bytes of the buffer belong to it.
  kOk,
  /// The buffer holds a frame prefix; read more bytes and retry.
  kNeedMoreData,
  /// The buffer can never become a valid frame (bad magic, oversized
  /// length, CRC mismatch, malformed payload): close the connection.
  kMalformed,
};

struct DecodeResult {
  DecodeVerdict verdict = DecodeVerdict::kNeedMoreData;
  Frame frame;
  /// Bytes consumed from the front of the buffer (kOk only).
  std::size_t consumed = 0;
  /// Human-readable cause (kMalformed only).
  std::string error;
};

/// Incremental decoder over a stream prefix.  Never throws, never
/// over-reads: the payload bound is enforced from the header alone.
[[nodiscard]] DecodeResult DecodeFrame(const char* data, std::size_t size);

// ---- body codecs ---------------------------------------------------------
// Each body is a flat sequence of the vor-bin primitives; decoders check
// that the body is consumed exactly (trailing bytes are malformed).

/// kSubmit: Request record (io/schema.hpp visitor shape) + f64 arrival.
[[nodiscard]] std::string EncodeSubmitBody(const workload::Request& request,
                                           util::Seconds arrival);
[[nodiscard]] util::Result<std::pair<workload::Request, util::Seconds>>
DecodeSubmitBody(const std::string& body);

/// kSubmitAck: varint outcome.
[[nodiscard]] std::string EncodeSubmitAckBody(svc::SubmitOutcome outcome);
[[nodiscard]] util::Result<svc::SubmitOutcome> DecodeSubmitAckBody(
    const std::string& body);

/// kStatusInfo.
struct StatusInfo {
  std::uint64_t cycle_index = 0;
  std::uint64_t pending = 0;
  std::uint64_t deferred = 0;
  std::uint64_t committed_total = 0;
};
[[nodiscard]] std::string EncodeStatusBody(const StatusInfo& info);
[[nodiscard]] util::Result<StatusInfo> DecodeStatusBody(
    const std::string& body);

/// kCycleStats: every svc::CycleStats field, varints then f64s, plus a
/// leading presence flag (kCycleQuery before the first close has none).
/// Two reserved varint slots after solve_attempts are written as 0 and
/// refused when non-zero.
[[nodiscard]] std::string EncodeCycleStatsBody(const svc::CycleStats* stats);
[[nodiscard]] util::Result<std::pair<bool, svc::CycleStats>>
DecodeCycleStatsBody(const std::string& body);

/// kSnapshotAck / kError: varint code (0 = ok for snapshot acks) +
/// length-prefixed message.
[[nodiscard]] std::string EncodeTextBody(std::uint64_t code,
                                         const std::string& message);
[[nodiscard]] util::Result<std::pair<std::uint64_t, std::string>>
DecodeTextBody(const std::string& body);

/// Wire error codes carried by kError frames.
inline constexpr std::uint64_t kErrMalformed = 1;
inline constexpr std::uint64_t kErrUnsupported = 2;
inline constexpr std::uint64_t kErrBusy = 3;
inline constexpr std::uint64_t kErrDraining = 4;
inline constexpr std::uint64_t kErrInternal = 5;

}  // namespace vor::rpc
