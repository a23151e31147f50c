// Differential suite for the "vor-bin/1" container: every document must
// round-trip JSON <-> binary without drift (the decoded schedule's JSON
// dump is byte-identical), re-encode to identical bytes (the container
// is canonical), and reject corruption instead of crashing.
#include "io/binary.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "io/serialize.hpp"
#include "svc/reservation_service.hpp"
#include "svc/snapshot.hpp"
#include "util/json.hpp"
#include "workload/scenario.hpp"
#include "workload/trace.hpp"
#include "workload/trace_stream.hpp"

namespace vor::io {
namespace {

workload::Scenario SmallScenario() {
  workload::ScenarioParams params;
  params.storage_count = 5;
  params.users_per_neighborhood = 4;
  params.catalog_size = 30;
  return workload::MakeScenario(params);
}

std::vector<workload::Request> SortedRequests() {
  workload::Scenario scenario = SmallScenario();
  workload::SortForReplay(scenario.requests);
  return scenario.requests;
}

core::Schedule SolvedSchedule(const workload::Scenario& scenario) {
  const core::VorScheduler scheduler(scenario.topology, scenario.catalog);
  auto solved = scheduler.Solve(scenario.requests);
  EXPECT_TRUE(solved.ok());
  return solved->schedule;
}

TEST(BinaryIoTest, VarintRoundTrip) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 300,
                                 16383,
                                 16384,
                                 (1ull << 32) - 1,
                                 1ull << 32,
                                 1ull << 63,
                                 ~0ull};
  std::string buffer;
  for (const std::uint64_t v : cases) AppendVarint(buffer, v);
  PayloadReader in(buffer);
  for (const std::uint64_t v : cases) {
    const auto got = in.Varint();
    ASSERT_TRUE(got.ok()) << got.error().message;
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(in.AtEnd());
}

TEST(BinaryIoTest, F64RoundTripIsExact) {
  const double cases[] = {0.0, -0.0, 1.0, -1.5, 46200.5, 1e-300, 1e300,
                          0.1, 3.141592653589793};
  std::string buffer;
  for (const double v : cases) AppendF64(buffer, v);
  PayloadReader in(buffer);
  for (const double v : cases) {
    const auto got = in.F64();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);  // bit-exact, not approximate
  }
}

TEST(BinaryIoTest, TraceRoundTrip) {
  const std::vector<workload::Request> requests = SortedRequests();
  const std::string bin = TraceToBinary(requests);
  EXPECT_TRUE(LooksBinary(bin));
  const auto back = TraceFromBinary(bin);
  ASSERT_TRUE(back.ok()) << back.error().message;
  ASSERT_EQ(back->size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ((*back)[i].user, requests[i].user);
    EXPECT_EQ((*back)[i].video, requests[i].video);
    EXPECT_EQ((*back)[i].start_time, requests[i].start_time);
    EXPECT_EQ((*back)[i].neighborhood, requests[i].neighborhood);
  }
}

TEST(BinaryIoTest, TraceReEncodeIsByteIdentical) {
  const std::string bin = TraceToBinary(SortedRequests());
  const auto decoded = TraceFromBinary(bin);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(TraceToBinary(*decoded), bin);
}

TEST(BinaryIoTest, TraceChunkingAcrossBoundaries) {
  // More records than one chunk holds; exercises multi-section payloads.
  std::vector<workload::Request> requests;
  requests.reserve(3 * kTraceChunkRecords + 7);
  for (std::size_t i = 0; i < 3 * kTraceChunkRecords + 7; ++i) {
    workload::Request r;
    r.user = static_cast<workload::UserId>(i % 977);
    r.video = static_cast<media::VideoId>(i % 31);
    r.start_time = util::Seconds{static_cast<double>(i / 3)};
    r.neighborhood = static_cast<net::NodeId>(i % 7);
    requests.push_back(r);
  }
  workload::SortForReplay(requests);
  const std::string bin = TraceToBinary(requests);
  const auto back = TraceFromBinary(bin);
  ASSERT_TRUE(back.ok()) << back.error().message;
  ASSERT_EQ(back->size(), requests.size());
  EXPECT_EQ(TraceToBinary(*back), bin);
}

TEST(BinaryIoTest, ScheduleDecodedJsonIsByteIdentical) {
  const workload::Scenario scenario = SmallScenario();
  const core::Schedule schedule = SolvedSchedule(scenario);
  const std::string bin = ScheduleToBinary(schedule);
  const auto decoded = ScheduleFromBinary(bin);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  // The tentpole invariant: the JSON rendering of the schedule decoded
  // from binary matches the JSON rendering of the original, byte for
  // byte — the two codecs cannot drift.
  EXPECT_EQ(ToJson(*decoded).Dump(2), ToJson(schedule).Dump(2));
  EXPECT_EQ(ScheduleToBinary(*decoded), bin);
}

TEST(BinaryIoTest, ScheduleNoRequestDeliveryRoundTrips) {
  // kNoRequest (dedicated cache load) uses the varint-0 OptIndex arm.
  core::Schedule schedule;
  core::FileSchedule file;
  file.video = 3;
  core::Delivery d;
  d.route = {0, 1, 2};
  d.start = util::Seconds{125.5};
  d.request_index = core::kNoRequest;
  file.deliveries.push_back(d);
  core::Residency res;
  res.location = 2;
  res.source = 0;
  res.t_start = util::Seconds{125.5};
  res.t_last = util::Seconds{500.0};
  res.services = {0, 2};
  file.residencies.push_back(res);
  schedule.files.push_back(file);

  const std::string bin = ScheduleToBinary(schedule);
  const auto decoded = ScheduleFromBinary(bin);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  ASSERT_EQ(decoded->files.size(), 1u);
  EXPECT_EQ(decoded->files[0].deliveries[0].request_index, core::kNoRequest);
  EXPECT_EQ(ToJson(*decoded).Dump(2), ToJson(schedule).Dump(2));
}

TEST(BinaryIoTest, SnapshotRoundTripMatchesJsonCodec) {
  const workload::Scenario scenario = SmallScenario();
  svc::ReservationService service(scenario.topology, scenario.catalog);
  for (const workload::Request& r : scenario.requests) {
    (void)service.Submit(r, r.start_time);
  }
  ASSERT_TRUE(service.CloseCycle().ok());
  const svc::ServiceSnapshot snapshot = service.Snapshot();

  const std::string bin = svc::SnapshotToBinary(snapshot);
  const auto decoded = svc::SnapshotFromBinary(bin);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  // Differential: the binary round trip and the JSON round trip agree
  // on every field, byte for byte through the JSON renderer.
  EXPECT_EQ(svc::SnapshotToJson(*decoded).Dump(2),
            svc::SnapshotToJson(snapshot).Dump(2));
  EXPECT_EQ(svc::SnapshotToBinary(*decoded), bin);
  // And the sniffing loader accepts both encodings.
  const auto from_bin = svc::SnapshotFromBytes(bin);
  ASSERT_TRUE(from_bin.ok());
  const auto from_json =
      svc::SnapshotFromBytes(svc::SnapshotToJson(snapshot).Dump(2));
  ASSERT_TRUE(from_json.ok()) << from_json.error().message;
  EXPECT_EQ(svc::SnapshotToJson(*from_json).Dump(2),
            svc::SnapshotToJson(*from_bin).Dump(2));
}

TEST(BinaryIoTest, SniffBinaryKindIdentifiesDocuments) {
  const workload::Scenario scenario = SmallScenario();
  const auto trace_kind = SniffBinaryKind(TraceToBinary(scenario.requests));
  ASSERT_TRUE(trace_kind.ok());
  EXPECT_EQ(*trace_kind, BinaryKind::kTrace);
  const auto sched_kind =
      SniffBinaryKind(ScheduleToBinary(SolvedSchedule(scenario)));
  ASSERT_TRUE(sched_kind.ok());
  EXPECT_EQ(*sched_kind, BinaryKind::kSchedule);
  svc::ReservationService service(scenario.topology, scenario.catalog);
  const auto snap_kind =
      SniffBinaryKind(svc::SnapshotToBinary(service.Snapshot()));
  ASSERT_TRUE(snap_kind.ok());
  EXPECT_EQ(*snap_kind, BinaryKind::kSnapshot);
  EXPECT_FALSE(LooksBinary("user,video,start_sec,neighborhood\n"));
  EXPECT_FALSE(LooksBinary("{\"format\": \"vor/1\"}"));
  EXPECT_FALSE(SniffBinaryKind("VOR").ok());
}

TEST(BinaryIoTest, BadMagicVersionAndKindRejected) {
  std::string bin = TraceToBinary(SortedRequests());
  // Wrong magic.
  std::string bad = bin;
  bad[0] = 'X';
  EXPECT_FALSE(TraceFromBinary(bad).ok());
  // Unknown container version (magic + varint 99).
  std::string future(kBinaryMagic, sizeof kBinaryMagic);
  AppendVarint(future, 99);
  AppendVarint(future, static_cast<std::uint64_t>(BinaryKind::kTrace));
  EXPECT_FALSE(TraceFromBinary(future).ok());
  EXPECT_FALSE(SniffBinaryKind(future).ok());
  // Kind mismatch: a trace container is not a schedule.
  EXPECT_FALSE(ScheduleFromBinary(bin).ok());
}

TEST(BinaryIoTest, EveryTruncationIsRejected) {
  const std::string bin = TraceToBinary(SortedRequests());
  for (std::size_t n = 0; n < bin.size(); ++n) {
    const auto r = TraceFromBinary(bin.substr(0, n));
    EXPECT_FALSE(r.ok()) << "truncation to " << n << " bytes accepted";
  }
  EXPECT_TRUE(TraceFromBinary(bin).ok());
}

TEST(BinaryIoTest, BitFlipsAreRejected) {
  const std::string bin = TraceToBinary(SortedRequests());
  for (std::size_t pos = 0; pos < bin.size(); pos += 3) {
    for (int bit = 0; bit < 8; bit += 5) {
      std::string bad = bin;
      bad[pos] = static_cast<char>(bad[pos] ^ (1 << bit));
      const auto r = TraceFromBinary(bad);
      EXPECT_FALSE(r.ok())
          << "bit flip at byte " << pos << " bit " << bit << " accepted";
    }
  }
}

TEST(BinaryIoTest, TrailingBytesAfterCrcRejected) {
  std::string bin = TraceToBinary(SortedRequests());
  bin.push_back('x');
  EXPECT_FALSE(TraceFromBinary(bin).ok());
}

TEST(BinaryIoTest, UnknownSectionsAreSkipped) {
  // Forward compatibility: a document with an extra section from a
  // future writer still decodes today.
  const std::vector<workload::Request> requests = SortedRequests();
  std::string bin;
  BinaryWriter writer([&bin](const char* d, std::size_t n) { bin.append(d, n); },
                      BinaryKind::kTrace);
  writer.BeginSection(99);
  AppendVarint(writer.payload(), 123456);
  AppendF64(writer.payload(), 2.75);
  writer.EndSection();
  WriteRequestChunk(writer, kSecTraceChunk, requests.data(), requests.size());
  writer.Finish();

  const auto back = TraceFromBinary(bin);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back->size(), requests.size());

  auto stream = workload::TraceStream::FromBytes(bin);
  ASSERT_TRUE(stream.ok());
  std::size_t streamed = 0;
  workload::Request r;
  while (true) {
    const auto more = stream->Next(r);
    ASSERT_TRUE(more.ok()) << more.error().message;
    if (!*more) break;
    ++streamed;
  }
  EXPECT_EQ(streamed, requests.size());
}

TEST(BinaryIoTest, OversizedSectionLengthRejected) {
  // A hostile length prefix larger than the payload cap must fail before
  // any allocation of that size is attempted.
  std::string bin(kBinaryMagic, sizeof kBinaryMagic);
  AppendVarint(bin, kBinaryVersion);
  AppendVarint(bin, static_cast<std::uint64_t>(BinaryKind::kTrace));
  AppendVarint(bin, kSecTraceChunk);
  AppendVarint(bin, kMaxSectionPayload + 1);
  EXPECT_FALSE(TraceFromBinary(bin).ok());

  // A length at the cap passes the bound check, but the input backs only
  // three bytes of it: the read fails on truncation, having grown the
  // payload by at most one step, not by the declared gigabyte.
  std::string hostile(kBinaryMagic, sizeof kBinaryMagic);
  AppendVarint(hostile, kBinaryVersion);
  AppendVarint(hostile, static_cast<std::uint64_t>(BinaryKind::kTrace));
  AppendVarint(hostile, kSecTraceChunk);
  AppendVarint(hostile, kMaxSectionPayload);
  hostile.append("abc");
  EXPECT_EQ(hostile.size(), 15u);
  BinaryReader reader(BufferSource(hostile));
  ASSERT_TRUE(reader.ReadHeader(BinaryKind::kTrace).ok());
  BinarySection section;
  EXPECT_FALSE(reader.NextSection(section).ok());
  EXPECT_LT(section.payload.capacity(), hostile.size() + kSectionReadStep);
  EXPECT_FALSE(TraceFromBinary(hostile).ok());
}

/// The CRC-32 one byte at a time: the textbook loop the sliced one must
/// agree with.
std::uint32_t BytewiseCrc32(const char* data, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= static_cast<unsigned char>(data[i]);
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(BinaryIoTest, SlicedCrcMatchesBytewiseOracle) {
  Crc32 check;
  check.Update("123456789", 9);
  EXPECT_EQ(check.value(), 0xCBF43926u);
  EXPECT_EQ(BytewiseCrc32("123456789", 9), 0xCBF43926u);

  // Every length 0..100 at every alignment 0..7, so the eight-byte
  // steps, the byte tail and misaligned loads all run.
  std::string buffer(8 + 100, '\0');
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<char>((i * 37 + 11) ^ (i >> 3));
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 100; ++n) {
      const char* data = buffer.data() + offset;
      Crc32 whole;
      whole.Update(data, n);
      EXPECT_EQ(whole.value(), BytewiseCrc32(data, n))
          << "offset " << offset << " length " << n;
      // Split anywhere, the running state carries across updates.
      Crc32 split;
      split.Update(data, n / 3);
      split.Update(data + n / 3, n - n / 3);
      EXPECT_EQ(split.value(), whole.value())
          << "offset " << offset << " length " << n;
    }
  }
}

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(BinaryIoTest, EncodedBytesArePinned) {
  // Round trips only show that the encoder and decoder agree; a drift
  // both sides accepted would pass them.  These digests were taken from
  // the byte-at-a-time encoder, so any change to the bytes fails here.
  const workload::Scenario scenario = SmallScenario();
  svc::ReservationService service(scenario.topology, scenario.catalog);
  for (const workload::Request& r : scenario.requests) {
    (void)service.Submit(r, r.start_time);
  }
  ASSERT_TRUE(service.CloseCycle().ok());
  const svc::ServiceSnapshot snapshot = service.Snapshot();

  const std::string trace = TraceToBinary(SortedRequests());
  const std::string schedule = ScheduleToBinary(snapshot.schedule);
  const std::string snap = svc::SnapshotToBinary(snapshot);
  EXPECT_EQ(trace.size(), 235u);
  EXPECT_EQ(Fnv1a(trace), 0x4d1acc83d42bb049ull);
  EXPECT_EQ(schedule.size(), 352u);
  EXPECT_EQ(Fnv1a(schedule), 0x857dffae5110046cull);
  EXPECT_EQ(snap.size(), 579u);
  EXPECT_EQ(Fnv1a(snap), 0xa147d6baeb73fd8eull);

  // Requests submitted after the close wait as pending, so this snapshot
  // also carries a stamped-request chunk.
  const std::vector<workload::Request> sorted = SortedRequests();
  for (std::size_t i = 0; i < 5; ++i) {
    (void)service.Submit(sorted[i], sorted[i].start_time);
  }
  const svc::ServiceSnapshot later = service.Snapshot();
  ASSERT_EQ(later.pending.size(), 5u);
  const std::string with_pending = svc::SnapshotToBinary(later);
  EXPECT_EQ(with_pending.size(), 682u);
  EXPECT_EQ(Fnv1a(with_pending), 0xfb20b45911b8f2efull);
}

TEST(TraceStreamTest, StreamingMatchesMaterializedDecode) {
  const std::vector<workload::Request> requests = SortedRequests();
  const std::string bin = TraceToBinary(requests);
  auto stream = workload::TraceStream::FromBytes(bin);
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  EXPECT_TRUE(stream->streaming());
  std::vector<workload::Request> streamed;
  workload::Request r;
  while (true) {
    const auto more = stream->Next(r);
    ASSERT_TRUE(more.ok()) << more.error().message;
    if (!*more) break;
    streamed.push_back(r);
  }
  ASSERT_EQ(streamed.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(streamed[i].user, requests[i].user);
    EXPECT_EQ(streamed[i].video, requests[i].video);
    EXPECT_EQ(streamed[i].start_time, requests[i].start_time);
    EXPECT_EQ(streamed[i].neighborhood, requests[i].neighborhood);
  }
}

TEST(TraceStreamTest, CsvBytesAreSortedIntoReplayOrder) {
  // CSV rows arrive in collector order; the stream yields replay order.
  const std::string csv =
      "user,video,start_sec,neighborhood\n"
      "2,5,200.0,1\n"
      "1,3,100.0,2\n"
      "0,4,100.0,1\n";
  auto stream = workload::TraceStream::FromBytes(csv);
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  EXPECT_FALSE(stream->streaming());
  std::vector<workload::Request> out;
  workload::Request r;
  while (true) {
    const auto more = stream->Next(r);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    out.push_back(r);
  }
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].user, 0u);
  EXPECT_EQ(out[1].user, 1u);
  EXPECT_EQ(out[2].user, 2u);
}

TEST(TraceStreamTest, OutOfOrderBinaryTraceRejected) {
  // A binary trace must already be in canonical replay order; the
  // streaming reader cannot sort and so refuses out-of-order input.
  std::vector<workload::Request> requests(2);
  requests[0].user = 1;
  requests[0].start_time = util::Seconds{500.0};
  requests[1].user = 2;
  requests[1].start_time = util::Seconds{100.0};
  std::string bin;
  BinaryWriter writer([&bin](const char* d, std::size_t n) { bin.append(d, n); },
                      BinaryKind::kTrace);
  WriteRequestChunk(writer, kSecTraceChunk, requests.data(), requests.size());
  writer.Finish();

  auto stream = workload::TraceStream::FromBytes(bin);
  ASSERT_TRUE(stream.ok());
  workload::Request r;
  const auto first = stream->Next(r);
  ASSERT_TRUE(first.ok());
  const auto second = stream->Next(r);
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.error().message.find("replay order"), std::string::npos);
}

TEST(TraceStreamTest, TraceJsonAndBinaryAgreeThroughJsonRenderer) {
  // requests JSON document -> vector and binary -> vector meet at the
  // same JSON bytes.
  const std::vector<workload::Request> requests = SortedRequests();
  const auto from_json = RequestsFromJson(ToJson(requests));
  ASSERT_TRUE(from_json.ok());
  const auto from_bin = TraceFromBinary(TraceToBinary(requests));
  ASSERT_TRUE(from_bin.ok());
  EXPECT_EQ(ToJson(*from_json).Dump(2), ToJson(*from_bin).Dump(2));
}

}  // namespace
}  // namespace vor::io
