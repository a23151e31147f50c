#include "rpc/protocol.hpp"

#include <cstring>

#include "io/binary.hpp"
#include "io/schema.hpp"

namespace vor::rpc {

namespace {

void AppendU32Le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

[[nodiscard]] std::uint32_t ReadU32Le(const char* data) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(data[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(data[1]))
          << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(data[2]))
          << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(data[3]))
          << 24);
}

[[nodiscard]] std::uint32_t CrcOf(const char* data, std::size_t n) {
  io::Crc32 crc;
  crc.Update(data, n);
  return crc.value();
}

DecodeResult Malformed(std::string why) {
  DecodeResult r;
  r.verdict = DecodeVerdict::kMalformed;
  r.error = std::move(why);
  return r;
}

/// Length-prefixed string inside a body (varint len + raw bytes).
void AppendString(std::string& out, const std::string& s) {
  io::AppendVarint(out, s.size());
  out.append(s);
}

}  // namespace

const char* ToString(MsgType type) {
  switch (type) {
    case MsgType::kSubmit: return "submit";
    case MsgType::kSubmitAck: return "submit_ack";
    case MsgType::kStatus: return "status";
    case MsgType::kStatusInfo: return "status_info";
    case MsgType::kCycleClose: return "cycle_close";
    case MsgType::kCycleStats: return "cycle_stats";
    case MsgType::kCycleQuery: return "cycle_query";
    case MsgType::kSnapshotTrigger: return "snapshot_trigger";
    case MsgType::kSnapshotAck: return "snapshot_ack";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kShutdownAck: return "shutdown_ack";
    case MsgType::kError: return "error";
  }
  return "unknown";
}

bool IsKnownMsgType(std::uint64_t raw) {
  return raw >= static_cast<std::uint64_t>(MsgType::kSubmit) &&
         raw <= static_cast<std::uint64_t>(MsgType::kError);
}

std::string EncodeFrame(const Frame& frame) {
  std::string payload;
  io::AppendVarint(payload, kRpcVersion);
  io::AppendVarint(payload, static_cast<std::uint64_t>(frame.type));
  io::AppendVarint(payload, frame.seq);
  payload.append(frame.body);

  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
  out.append(kRpcMagic, sizeof kRpcMagic);
  AppendU32Le(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  AppendU32Le(out, CrcOf(out.data(), out.size()));
  return out;
}

DecodeResult DecodeFrame(const char* data, std::size_t size) {
  DecodeResult need_more;  // default verdict is kNeedMoreData

  // Magic is checked byte-by-byte as it arrives, so garbage is rejected
  // from the very first byte instead of waiting for a full header.
  const std::size_t magic_avail = size < sizeof kRpcMagic ? size
                                                          : sizeof kRpcMagic;
  if (std::memcmp(data, kRpcMagic, magic_avail) != 0) {
    return Malformed("bad frame magic");
  }
  if (size < kFrameHeaderBytes) return need_more;

  const std::uint32_t payload_len = ReadU32Le(data + sizeof kRpcMagic);
  if (payload_len > kMaxFramePayload) {
    return Malformed("oversized frame payload (" +
                     std::to_string(payload_len) + " bytes)");
  }
  const std::size_t total =
      kFrameHeaderBytes + payload_len + kFrameTrailerBytes;
  if (size < total) return need_more;

  const std::uint32_t want = ReadU32Le(data + total - kFrameTrailerBytes);
  if (CrcOf(data, total - kFrameTrailerBytes) != want) {
    return Malformed("frame CRC mismatch");
  }

  const std::string payload(data + kFrameHeaderBytes, payload_len);
  io::PayloadReader in(payload);
  const auto version = in.Varint();
  if (!version.ok()) return Malformed("truncated frame version");
  if (*version != kRpcVersion) {
    return Malformed("unknown vor-rpc version " + std::to_string(*version));
  }
  const auto type = in.Varint();
  if (!type.ok()) return Malformed("truncated frame type");
  if (!IsKnownMsgType(*type)) {
    return Malformed("unknown message type " + std::to_string(*type));
  }
  const auto seq = in.Varint();
  if (!seq.ok()) return Malformed("truncated frame seq");

  DecodeResult ok;
  ok.verdict = DecodeVerdict::kOk;
  ok.consumed = total;
  ok.frame.type = static_cast<MsgType>(*type);
  ok.frame.seq = *seq;
  // The body is whatever follows the three payload varints.  Re-derive
  // its offset by re-encoding them (varint lengths are value-determined).
  std::string prefix;
  io::AppendVarint(prefix, *version);
  io::AppendVarint(prefix, *type);
  io::AppendVarint(prefix, *seq);
  ok.frame.body = payload.substr(prefix.size());
  return ok;
}

// ---- body codecs ---------------------------------------------------------

std::string EncodeSubmitBody(const workload::Request& request,
                             util::Seconds arrival) {
  std::string out;
  io::BinaryFieldWriter writer(out);
  io::schema::VisitRequest(writer, request);
  writer.Time("arrival_sec", arrival);
  writer.Flush();
  return out;
}

util::Result<std::pair<workload::Request, util::Seconds>> DecodeSubmitBody(
    const std::string& body) {
  io::PayloadReader in(body);
  io::BinaryFieldReader reader{in};
  workload::Request request;
  io::schema::VisitRequest(reader, request);
  if (!reader.status.ok()) return reader.status.error();
  const auto arrival = in.F64();
  if (!arrival.ok()) return arrival.error();
  if (!in.AtEnd()) {
    return util::InvalidArgument("trailing bytes after submit body");
  }
  return std::make_pair(request, util::Seconds{*arrival});
}

std::string EncodeSubmitAckBody(svc::SubmitOutcome outcome) {
  std::string out;
  io::AppendVarint(out, static_cast<std::uint64_t>(outcome));
  return out;
}

util::Result<svc::SubmitOutcome> DecodeSubmitAckBody(const std::string& body) {
  io::PayloadReader in(body);
  const auto raw = in.Varint();
  if (!raw.ok()) return raw.error();
  if (*raw > static_cast<std::uint64_t>(
                 svc::SubmitOutcome::kRejectedBackpressure)) {
    return util::InvalidArgument("unknown submit outcome " +
                                 std::to_string(*raw));
  }
  if (!in.AtEnd()) {
    return util::InvalidArgument("trailing bytes after submit ack");
  }
  return static_cast<svc::SubmitOutcome>(*raw);
}

std::string EncodeStatusBody(const StatusInfo& info) {
  std::string out;
  io::AppendVarint(out, info.cycle_index);
  io::AppendVarint(out, info.pending);
  io::AppendVarint(out, info.deferred);
  io::AppendVarint(out, info.committed_total);
  return out;
}

util::Result<StatusInfo> DecodeStatusBody(const std::string& body) {
  io::PayloadReader in(body);
  StatusInfo info;
  for (std::uint64_t* field : {&info.cycle_index, &info.pending,
                               &info.deferred, &info.committed_total}) {
    const auto v = in.Varint();
    if (!v.ok()) return v.error();
    *field = *v;
  }
  if (!in.AtEnd()) {
    return util::InvalidArgument("trailing bytes after status body");
  }
  return info;
}

std::string EncodeCycleStatsBody(const svc::CycleStats* stats) {
  std::string out;
  io::AppendVarint(out, stats == nullptr ? 0 : 1);
  if (stats == nullptr) return out;
  io::AppendVarint(out, stats->cycle);
  io::AppendVarint(out, stats->drained);
  io::AppendVarint(out, stats->deferred_in);
  io::AppendVarint(out, stats->admitted);
  io::AppendVarint(out, stats->deferred_out);
  io::AppendVarint(out, stats->rejected_expired);
  io::AppendVarint(out, stats->rejected_deferred_full);
  io::AppendVarint(out, stats->solve_attempts);
  // Two reserved slots, always 0 (see docs/FORMATS.md).
  io::AppendVarint(out, 0);
  io::AppendVarint(out, 0);
  io::AppendVarint(out, stats->committed_total);
  io::AppendF64(out, stats->close_seconds);
  io::AppendF64(out, stats->solve_seconds);
  io::AppendF64(out, stats->final_cost);
  return out;
}

util::Result<std::pair<bool, svc::CycleStats>> DecodeCycleStatsBody(
    const std::string& body) {
  io::PayloadReader in(body);
  const auto present = in.Varint();
  if (!present.ok()) return present.error();
  svc::CycleStats stats;
  if (*present == 0) {
    if (!in.AtEnd()) {
      return util::InvalidArgument("trailing bytes after empty cycle stats");
    }
    return std::make_pair(false, stats);
  }
  std::uint64_t fields[10] = {};
  for (std::uint64_t& f : fields) {
    const auto v = in.Varint();
    if (!v.ok()) return v.error();
    f = *v;
  }
  stats.cycle = fields[0];
  stats.drained = static_cast<std::size_t>(fields[1]);
  stats.deferred_in = static_cast<std::size_t>(fields[2]);
  stats.admitted = static_cast<std::size_t>(fields[3]);
  stats.deferred_out = static_cast<std::size_t>(fields[4]);
  stats.rejected_expired = static_cast<std::size_t>(fields[5]);
  stats.rejected_deferred_full = static_cast<std::size_t>(fields[6]);
  stats.solve_attempts = static_cast<std::size_t>(fields[7]);
  if (fields[8] != 0 || fields[9] != 0) {
    return util::InvalidArgument("reserved cycle stats slot is not 0");
  }
  const auto committed = in.Varint();
  if (!committed.ok()) return committed.error();
  stats.committed_total = static_cast<std::size_t>(*committed);
  for (double* field :
       {&stats.close_seconds, &stats.solve_seconds, &stats.final_cost}) {
    const auto v = in.F64();
    if (!v.ok()) return v.error();
    *field = *v;
  }
  if (!in.AtEnd()) {
    return util::InvalidArgument("trailing bytes after cycle stats");
  }
  return std::make_pair(true, stats);
}

std::string EncodeTextBody(std::uint64_t code, const std::string& message) {
  std::string out;
  io::AppendVarint(out, code);
  AppendString(out, message);
  return out;
}

util::Result<std::pair<std::uint64_t, std::string>> DecodeTextBody(
    const std::string& body) {
  io::PayloadReader in(body);
  const auto code = in.Varint();
  if (!code.ok()) return code.error();
  const auto len = in.Varint();
  if (!len.ok()) return len.error();
  // The message is the tail of the body; its offset is the bytes the two
  // varints re-encode to (varint length is value-determined).
  std::string prefix;
  io::AppendVarint(prefix, *code);
  io::AppendVarint(prefix, *len);
  if (prefix.size() + *len != body.size()) {
    return util::InvalidArgument("text body length mismatch");
  }
  return std::make_pair(*code, body.substr(prefix.size()));
}

}  // namespace vor::rpc
