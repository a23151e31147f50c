// vor-rpc/1 front-end suite: adversarial framing (the wire twin of the
// vor-bin corruption tests), server robustness on a real loopback
// socket, client failover, and the headline invariant — a trace replayed
// over RPC at any connection count commits the exact bytes a local file
// replay commits.
#include "rpc/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "io/binary.hpp"
#include "io/serialize.hpp"
#include "rpc/client.hpp"
#include "rpc/load.hpp"
#include "rpc/server.hpp"
#include "rpc/socket.hpp"
#include "svc/reservation_service.hpp"
#include "util/json.hpp"
#include "workload/scenario.hpp"
#include "workload/trace_stream.hpp"

namespace vor::rpc {
namespace {

workload::Scenario SmallScenario() {
  workload::ScenarioParams params;
  params.storage_count = 5;
  params.users_per_neighborhood = 4;
  params.catalog_size = 30;
  params.seed = 17;
  return workload::MakeScenario(params);
}

[[nodiscard]] std::string EncodedSubmitFrame(std::uint64_t seq = 7) {
  const workload::Scenario scenario = SmallScenario();
  Frame frame;
  frame.type = MsgType::kSubmit;
  frame.seq = seq;
  frame.body = EncodeSubmitBody(scenario.requests.front(),
                                scenario.requests.front().start_time);
  return EncodeFrame(frame);
}

// ---- frame codec ---------------------------------------------------------

TEST(RpcFrameTest, RoundTripEveryMessageType) {
  const workload::Scenario scenario = SmallScenario();
  const workload::Request& request = scenario.requests.front();

  svc::CycleStats stats;
  stats.cycle = 3;
  stats.drained = 11;
  stats.admitted = 9;
  stats.deferred_out = 2;
  stats.solve_attempts = 4;
  stats.close_seconds = 0.25;
  stats.solve_seconds = 0.125;
  stats.final_cost = 1234.5;
  stats.committed_total = 42;

  StatusInfo info;
  info.cycle_index = 6;
  info.pending = 12;
  info.deferred = 3;
  info.committed_total = 99;

  const struct {
    MsgType type;
    std::string body;
  } cases[] = {
      {MsgType::kSubmit, EncodeSubmitBody(request, util::Seconds{5.5})},
      {MsgType::kSubmitAck,
       EncodeSubmitAckBody(svc::SubmitOutcome::kDeferred)},
      {MsgType::kStatus, std::string()},
      {MsgType::kStatusInfo, EncodeStatusBody(info)},
      {MsgType::kCycleClose, std::string()},
      {MsgType::kCycleStats, EncodeCycleStatsBody(&stats)},
      {MsgType::kCycleQuery, std::string()},
      {MsgType::kSnapshotTrigger, std::string()},
      {MsgType::kSnapshotAck, EncodeTextBody(0, "/tmp/x.snap")},
      {MsgType::kShutdown, std::string()},
      {MsgType::kShutdownAck, std::string()},
      {MsgType::kError, EncodeTextBody(kErrBusy, "busy")},
  };
  std::uint64_t seq = 100;
  for (const auto& c : cases) {
    Frame frame;
    frame.type = c.type;
    frame.seq = seq++;
    frame.body = c.body;
    const std::string wire = EncodeFrame(frame);
    const DecodeResult decoded = DecodeFrame(wire.data(), wire.size());
    ASSERT_EQ(decoded.verdict, DecodeVerdict::kOk) << ToString(c.type);
    EXPECT_EQ(decoded.consumed, wire.size());
    EXPECT_EQ(decoded.frame.type, c.type);
    EXPECT_EQ(decoded.frame.seq, frame.seq);
    EXPECT_EQ(decoded.frame.body, c.body);
  }
}

TEST(RpcFrameTest, SubmitBodyRoundTripsExactly) {
  const workload::Scenario scenario = SmallScenario();
  for (const workload::Request& request : scenario.requests) {
    const std::string body =
        EncodeSubmitBody(request, request.start_time);
    const auto back = DecodeSubmitBody(body);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back->first.user, request.user);
    EXPECT_EQ(back->first.video, request.video);
    EXPECT_EQ(back->first.start_time, request.start_time);
    EXPECT_EQ(back->first.neighborhood, request.neighborhood);
    EXPECT_EQ(back->second, request.start_time);  // bit-exact f64
  }
}

TEST(RpcFrameTest, CycleStatsBodyRoundTripsIncludingAbsent) {
  const auto absent = DecodeCycleStatsBody(EncodeCycleStatsBody(nullptr));
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(absent->first);

  svc::CycleStats stats;
  stats.cycle = 9;
  stats.drained = 100;
  stats.deferred_in = 7;
  stats.admitted = 80;
  stats.deferred_out = 20;
  stats.rejected_expired = 3;
  stats.rejected_deferred_full = 1;
  stats.solve_attempts = 2;
  stats.close_seconds = 1.5;
  stats.solve_seconds = 0.75;
  stats.final_cost = 98765.4321;
  stats.committed_total = 1234;
  const auto back = DecodeCycleStatsBody(EncodeCycleStatsBody(&stats));
  ASSERT_TRUE(back.ok()) << back.error().message;
  ASSERT_TRUE(back->first);
  const svc::CycleStats& b = back->second;
  EXPECT_EQ(b.cycle, stats.cycle);
  EXPECT_EQ(b.drained, stats.drained);
  EXPECT_EQ(b.deferred_in, stats.deferred_in);
  EXPECT_EQ(b.admitted, stats.admitted);
  EXPECT_EQ(b.deferred_out, stats.deferred_out);
  EXPECT_EQ(b.rejected_expired, stats.rejected_expired);
  EXPECT_EQ(b.rejected_deferred_full, stats.rejected_deferred_full);
  EXPECT_EQ(b.solve_attempts, stats.solve_attempts);
  EXPECT_EQ(b.close_seconds, stats.close_seconds);
  EXPECT_EQ(b.solve_seconds, stats.solve_seconds);
  EXPECT_EQ(b.final_cost, stats.final_cost);
  EXPECT_EQ(b.committed_total, stats.committed_total);

  // The two reserved varints follow the presence flag and the eight
  // one-byte stats varints above; they are written as 0, and a body
  // with either set is refused.
  const std::string body = EncodeCycleStatsBody(&stats);
  for (const std::size_t slot : {std::size_t{9}, std::size_t{10}}) {
    ASSERT_EQ(body[slot], '\0') << "slot " << slot;
    std::string bad = body;
    bad[slot] = '\3';
    const auto refused = DecodeCycleStatsBody(bad);
    ASSERT_FALSE(refused.ok()) << "slot " << slot;
    EXPECT_EQ(refused.error().code, util::Error::Code::kInvalidArgument);
  }
}

TEST(RpcFrameTest, BodyDecodersRejectTrailingBytes) {
  const workload::Scenario scenario = SmallScenario();
  std::string submit =
      EncodeSubmitBody(scenario.requests.front(), util::Seconds{1.0});
  submit.push_back('\0');
  EXPECT_FALSE(DecodeSubmitBody(submit).ok());

  std::string ack = EncodeSubmitAckBody(svc::SubmitOutcome::kAccepted);
  ack.push_back('x');
  EXPECT_FALSE(DecodeSubmitAckBody(ack).ok());

  std::string status = EncodeStatusBody(StatusInfo{});
  status.push_back('\7');
  EXPECT_FALSE(DecodeStatusBody(status).ok());

  std::string text = EncodeTextBody(0, "ok");
  text.push_back('!');  // breaks the length-prefix accounting
  EXPECT_FALSE(DecodeTextBody(text).ok());
}

TEST(RpcFrameTest, SubmitAckRejectsUnknownOutcome) {
  std::string body;
  io::AppendVarint(body, 250);
  EXPECT_FALSE(DecodeSubmitAckBody(body).ok());
}

/// Every proper prefix of a valid frame must read as "need more data" —
/// the incremental decoder never commits early and never crashes on a
/// half-written frame.
TEST(RpcFrameTest, TruncationSweepNeedsMoreData) {
  const std::string wire = EncodedSubmitFrame();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const DecodeResult decoded = DecodeFrame(wire.data(), len);
    EXPECT_EQ(decoded.verdict, DecodeVerdict::kNeedMoreData)
        << "prefix length " << len;
  }
  const DecodeResult whole = DecodeFrame(wire.data(), wire.size());
  EXPECT_EQ(whole.verdict, DecodeVerdict::kOk);
}

/// Any single bit flip anywhere in the frame must be rejected (bad
/// magic, hostile length, or CRC mismatch) — never decoded as a frame.
TEST(RpcFrameTest, BitFlipSweepNeverDecodes) {
  const std::string wire = EncodedSubmitFrame();
  for (std::size_t pos = 0; pos < wire.size(); pos += 3) {
    for (int bit = 0; bit < 8; bit += 5) {
      std::string corrupt = wire;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << bit));
      const DecodeResult decoded =
          DecodeFrame(corrupt.data(), corrupt.size());
      EXPECT_NE(decoded.verdict, DecodeVerdict::kOk)
          << "byte " << pos << " bit " << bit;
    }
  }
}

TEST(RpcFrameTest, BadMagicRejectsFromFirstByte) {
  std::string wire = EncodedSubmitFrame();
  wire[0] = 'X';
  // Even a single buffered byte is enough to condemn the stream.
  EXPECT_EQ(DecodeFrame(wire.data(), 1).verdict, DecodeVerdict::kMalformed);
  EXPECT_EQ(DecodeFrame(wire.data(), wire.size()).verdict,
            DecodeVerdict::kMalformed);
}

TEST(RpcFrameTest, UnknownVersionRejected) {
  // Hand-build a frame whose payload claims protocol version 9.
  std::string payload;
  io::AppendVarint(payload, 9);
  io::AppendVarint(payload, static_cast<std::uint64_t>(MsgType::kStatus));
  io::AppendVarint(payload, 1);
  std::string wire(kRpcMagic, sizeof kRpcMagic);
  wire.push_back(static_cast<char>(payload.size()));
  wire.append(3, '\0');  // u32 LE length, high bytes zero
  wire.append(payload);
  io::Crc32 crc;
  crc.Update(wire.data(), wire.size());
  const std::uint32_t v = crc.value();
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
  const DecodeResult decoded = DecodeFrame(wire.data(), wire.size());
  EXPECT_EQ(decoded.verdict, DecodeVerdict::kMalformed);
  EXPECT_NE(decoded.error.find("version"), std::string::npos);
}

TEST(RpcFrameTest, OversizedLengthRejectedBeforeBuffering) {
  // A hostile length prefix is refused from the 8-byte header alone —
  // no allocation, no waiting for the claimed payload.
  std::string header(kRpcMagic, sizeof kRpcMagic);
  const std::uint32_t huge =
      static_cast<std::uint32_t>(kMaxFramePayload) + 1;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  }
  const DecodeResult decoded = DecodeFrame(header.data(), header.size());
  EXPECT_EQ(decoded.verdict, DecodeVerdict::kMalformed);
  EXPECT_NE(decoded.error.find("oversized"), std::string::npos);
}

TEST(RpcFrameTest, PipelinedFramesDecodeInOrder) {
  const std::string first = EncodedSubmitFrame(1);
  Frame status;
  status.type = MsgType::kStatus;
  status.seq = 2;
  const std::string buffer = first + EncodeFrame(status);

  const DecodeResult one = DecodeFrame(buffer.data(), buffer.size());
  ASSERT_EQ(one.verdict, DecodeVerdict::kOk);
  EXPECT_EQ(one.frame.seq, 1u);
  EXPECT_EQ(one.consumed, first.size());
  const DecodeResult two = DecodeFrame(buffer.data() + one.consumed,
                                       buffer.size() - one.consumed);
  ASSERT_EQ(two.verdict, DecodeVerdict::kOk);
  EXPECT_EQ(two.frame.type, MsgType::kStatus);
  EXPECT_EQ(two.frame.seq, 2u);
}

// ---- endpoint parsing ----------------------------------------------------

TEST(RpcEndpointTest, ParsesHostPortAndLists) {
  const auto single = ParseEndpoint("127.0.0.1:8080");
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->host, "127.0.0.1");
  EXPECT_EQ(single->port, 8080);

  const auto list = ParseEndpointList("a:1,b:2,c:3");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[1].host, "b");
  EXPECT_EQ((*list)[2].port, 3);

  EXPECT_FALSE(ParseEndpoint("no-port").ok());
  EXPECT_FALSE(ParseEndpoint(":80").ok());
  EXPECT_FALSE(ParseEndpoint("host:").ok());
  EXPECT_FALSE(ParseEndpoint("host:99999").ok());
  EXPECT_FALSE(ParseEndpointList("").ok());
}

// ---- loopback server -----------------------------------------------------

struct LoopbackServer {
  workload::Scenario scenario = SmallScenario();
  svc::ReservationService service;
  Server server;

  explicit LoopbackServer(ServerConfig config = {})
      : service(scenario.topology, scenario.catalog, ServiceConfigFor()),
        server(service, WithLoopback(std::move(config))) {
    const util::Status started = server.Start();
    EXPECT_TRUE(started.ok()) << started.error().message;
  }

  [[nodiscard]] static svc::ServiceConfig ServiceConfigFor() {
    svc::ServiceConfig config;
    config.shards = 4;
    return config;
  }

  [[nodiscard]] static ServerConfig WithLoopback(ServerConfig config) {
    config.listen = Endpoint{"127.0.0.1", 0};
    config.poll_seconds = 0.02;  // fast drain for tests
    return config;
  }

  [[nodiscard]] Endpoint endpoint() const {
    return Endpoint{"127.0.0.1", server.port()};
  }

  [[nodiscard]] Client MakeClient() const {
    ClientConfig config;
    config.endpoints = {endpoint()};
    return Client(std::move(config));
  }
};

TEST(RpcServerTest, SubmitStatusCycleRoundTrip) {
  LoopbackServer loopback;
  Client client = loopback.MakeClient();

  // Before any close, a cycle query reports "no stats yet".
  const auto before = client.QueryCycle();
  ASSERT_TRUE(before.ok()) << before.error().message;
  EXPECT_FALSE(before->first);

  std::size_t accepted = 0;
  for (const workload::Request& r : loopback.scenario.requests) {
    const auto outcome = client.Submit(r, r.start_time);
    ASSERT_TRUE(outcome.ok()) << outcome.error().message;
    if (*outcome == svc::SubmitOutcome::kAccepted) ++accepted;
  }
  EXPECT_GT(accepted, 0u);

  const auto status = client.Status();
  ASSERT_TRUE(status.ok()) << status.error().message;
  EXPECT_EQ(status->pending, accepted);
  EXPECT_EQ(status->cycle_index, 0u);

  const auto stats = client.CloseCycle();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  EXPECT_EQ(stats->drained, accepted);

  const auto after = client.QueryCycle();
  ASSERT_TRUE(after.ok()) << after.error().message;
  ASSERT_TRUE(after->first);
  EXPECT_EQ(after->second.cycle, stats->cycle);
  EXPECT_EQ(after->second.committed_total, stats->committed_total);
}

TEST(RpcServerTest, MalformedBytesGetErrorFrameThenClose) {
  LoopbackServer loopback;
  auto socket = ConnectTcp(loopback.endpoint(), 5.0);
  ASSERT_TRUE(socket.ok()) << socket.error().message;

  const std::string garbage = "GARBAGE-NOT-A-FRAME";
  ASSERT_TRUE(socket->SendAll(garbage.data(), garbage.size()).ok());

  // The server answers with a kError frame, then closes the connection.
  std::string buffer;
  char chunk[512];
  bool saw_error = false;
  bool saw_eof = false;
  for (int i = 0; i < 100 && !saw_eof; ++i) {
    const auto received = socket->RecvSome(chunk, sizeof chunk, 0.2);
    ASSERT_TRUE(received.ok());
    if (received->eof) {
      saw_eof = true;
      break;
    }
    if (received->timed_out) continue;
    buffer.append(chunk, received->n);
    const DecodeResult decoded = DecodeFrame(buffer.data(), buffer.size());
    if (decoded.verdict == DecodeVerdict::kOk) {
      EXPECT_EQ(decoded.frame.type, MsgType::kError);
      const auto text = DecodeTextBody(decoded.frame.body);
      ASSERT_TRUE(text.ok());
      EXPECT_EQ(text->first, kErrMalformed);
      saw_error = true;
      buffer.erase(0, decoded.consumed);
    }
  }
  EXPECT_TRUE(saw_error);
  EXPECT_TRUE(saw_eof);
}

TEST(RpcServerTest, OversizedLengthPrefixClosesConnection) {
  LoopbackServer loopback;
  auto socket = ConnectTcp(loopback.endpoint(), 5.0);
  ASSERT_TRUE(socket.ok()) << socket.error().message;

  std::string header(kRpcMagic, sizeof kRpcMagic);
  const std::uint32_t huge = 0x7FFFFFFF;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  }
  ASSERT_TRUE(socket->SendAll(header.data(), header.size()).ok());

  bool saw_eof = false;
  char chunk[512];
  for (int i = 0; i < 100 && !saw_eof; ++i) {
    const auto received = socket->RecvSome(chunk, sizeof chunk, 0.2);
    ASSERT_TRUE(received.ok());
    saw_eof = received->eof;
  }
  EXPECT_TRUE(saw_eof);
  // The server survives to serve a fresh, healthy connection.
  Client client = loopback.MakeClient();
  EXPECT_TRUE(client.Status().ok());
}

/// Two connections drip-feed interleaved partial frames; the per-
/// connection buffers must reassemble each stream independently.
TEST(RpcServerTest, InterleavedPartialWritesAcrossTwoConnections) {
  LoopbackServer loopback;
  auto a = ConnectTcp(loopback.endpoint(), 5.0);
  auto b = ConnectTcp(loopback.endpoint(), 5.0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  const workload::Request& r0 = loopback.scenario.requests[0];
  const workload::Request& r1 = loopback.scenario.requests[1];
  Frame fa;
  fa.type = MsgType::kSubmit;
  fa.seq = 11;
  fa.body = EncodeSubmitBody(r0, r0.start_time);
  Frame fb;
  fb.type = MsgType::kSubmit;
  fb.seq = 22;
  fb.body = EncodeSubmitBody(r1, r1.start_time);
  const std::string wa = EncodeFrame(fa);
  const std::string wb = EncodeFrame(fb);

  // Alternate 3-byte slivers between the two sockets.
  std::size_t pa = 0;
  std::size_t pb = 0;
  while (pa < wa.size() || pb < wb.size()) {
    if (pa < wa.size()) {
      const std::size_t n = std::min<std::size_t>(3, wa.size() - pa);
      ASSERT_TRUE(a->SendAll(wa.data() + pa, n).ok());
      pa += n;
    }
    if (pb < wb.size()) {
      const std::size_t n = std::min<std::size_t>(3, wb.size() - pb);
      ASSERT_TRUE(b->SendAll(wb.data() + pb, n).ok());
      pb += n;
    }
  }

  // Both connections get a correctly-correlated ack.
  for (auto* pair : {&a, &b}) {
    std::string buffer;
    char chunk[512];
    DecodeResult decoded;
    for (int i = 0; i < 200; ++i) {
      decoded = DecodeFrame(buffer.data(), buffer.size());
      if (decoded.verdict == DecodeVerdict::kOk) break;
      const auto received = (*pair)->RecvSome(chunk, sizeof chunk, 0.2);
      ASSERT_TRUE(received.ok());
      ASSERT_FALSE(received->eof);
      if (!received->timed_out) buffer.append(chunk, received->n);
    }
    ASSERT_EQ(decoded.verdict, DecodeVerdict::kOk);
    EXPECT_EQ(decoded.frame.type, MsgType::kSubmitAck);
    EXPECT_EQ(decoded.frame.seq, pair == &a ? 11u : 22u);
  }
  EXPECT_EQ(loopback.service.PendingCount(), 2u);
}

TEST(RpcServerTest, ShutdownHandshakeAndSnapshotTrigger) {
  ServerConfig config;
  config.snapshot_writer = []() -> util::Result<std::string> {
    return std::string("/tmp/fake.snap");
  };
  LoopbackServer loopback(std::move(config));
  Client client = loopback.MakeClient();

  const auto path = client.TriggerSnapshot();
  ASSERT_TRUE(path.ok()) << path.error().message;
  EXPECT_EQ(*path, "/tmp/fake.snap");

  EXPECT_FALSE(loopback.server.ShutdownRequested());
  ASSERT_TRUE(client.Shutdown().ok());
  EXPECT_TRUE(loopback.server.WaitForShutdownRequest(5.0));
}

TEST(RpcClientTest, FailoverSkipsDeadEndpoint) {
  LoopbackServer loopback;
  // A listener that is bound but never accepted from would hang; use a
  // port that is almost surely closed instead (connect is refused fast).
  ClientConfig config;
  config.endpoints = {Endpoint{"127.0.0.1", 1}, loopback.endpoint()};
  config.connect_timeout_seconds = 2.0;
  Client client(std::move(config));
  const auto status = client.Status();
  ASSERT_TRUE(status.ok()) << status.error().message;
  EXPECT_EQ(client.current_endpoint().port, loopback.server.port());
}

// ---- loopback byte-identity ----------------------------------------------

/// Reference replay: the exact windowing RunLoad drives over the wire,
/// performed directly against a local service.  Void so ASSERT_* works;
/// the committed-schedule JSON lands in *out.
void ReplayFileDirect(const workload::Scenario& scenario,
                      double cycle_seconds, std::string* out) {
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  LoopbackServer::ServiceConfigFor());
  workload::TraceStream stream =
      workload::TraceStream::FromVector(scenario.requests);
  std::vector<workload::Request> window;
  auto close_window = [&]() {
    if (window.empty()) return;
    for (const workload::Request& r : window) {
      (void)service.Submit(r, r.start_time);
    }
    window.clear();
    const auto stats = service.CloseCycle();
    ASSERT_TRUE(stats.ok()) << stats.error().message;
  };
  double t0 = 0.0;
  std::size_t total = 0;
  double w = 0.0;
  workload::Request r;
  while (true) {
    const auto more = stream.Next(r);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    if (total == 0) t0 = r.start_time.value();
    if (const double next =
            std::floor((r.start_time.value() - t0) / cycle_seconds);
        next != w) {
      close_window();
      w = next;
    }
    window.push_back(r);
    ++total;
  }
  close_window();
  std::size_t backlog = service.DeferredCount();
  for (int extra = 0; backlog > 0 && extra < 16; ++extra) {
    const auto stats = service.CloseCycle();
    ASSERT_TRUE(stats.ok());
    const std::size_t now = service.DeferredCount();
    if (now >= backlog) break;
    backlog = now;
  }
  *out = io::ToJson(service.CommittedSchedule()).Dump();
}

/// The headline invariant: RPC replay commits the same bytes as a local
/// file replay, at 1, 4, and 8 connections.
TEST(RpcLoopbackTest, ByteIdenticalScheduleAcrossConnectionCounts) {
  const workload::Scenario scenario = SmallScenario();
  // ~4 virtual-time windows over the scenario's horizon.
  double lo = scenario.requests.front().start_time.value();
  double hi = lo;
  for (const workload::Request& r : scenario.requests) {
    lo = std::min(lo, r.start_time.value());
    hi = std::max(hi, r.start_time.value());
  }
  const double cycle_seconds = (hi - lo) / 4.0 + 1.0;

  std::string reference;
  ASSERT_NO_FATAL_FAILURE(
      ReplayFileDirect(scenario, cycle_seconds, &reference));
  ASSERT_FALSE(reference.empty());

  for (const std::size_t connections : {1u, 4u, 8u}) {
    svc::ReservationService service(scenario.topology, scenario.catalog,
                                    LoopbackServer::ServiceConfigFor());
    ServerConfig server_config;
    server_config.listen = Endpoint{"127.0.0.1", 0};
    server_config.poll_seconds = 0.02;
    Server server(service, server_config);
    ASSERT_TRUE(server.Start().ok());

    LoadConfig load_config;
    load_config.endpoints = {Endpoint{"127.0.0.1", server.port()}};
    load_config.connections = connections;
    load_config.cycle_seconds = cycle_seconds;
    workload::TraceStream stream =
        workload::TraceStream::FromVector(scenario.requests);
    const auto report = RunLoad(stream, load_config);
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_EQ(report->submitted, scenario.requests.size());
    EXPECT_EQ(report->transport_errors, 0u);
    EXPECT_EQ(report->ack_seconds.size(), report->submitted);
    EXPECT_EQ(report->commit_seconds.size(), report->submitted);
    server.Stop();

    EXPECT_EQ(io::ToJson(service.CommittedSchedule()).Dump(), reference)
        << connections << " connections diverged from the file replay";
  }
}

}  // namespace
}  // namespace vor::rpc
