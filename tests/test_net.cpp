// The network transport's contracts, all over real loopback sockets:
//
//   - the wire codec round-trips and the strict FrameReader rejects
//     torn, corrupt and oversized frames with byte-offset provenance
//     (mirroring the event log's reader discipline), however its
//     buffered reads split the stream into recvs;
//   - a full socket-fed session is indistinguishable from an
//     in-process one: the event log the server writes is BYTE-IDENTICAL
//     to the log an in-process LiveEngine writes over the same feed,
//     and replay-equals-live extends over the socket;
//   - protocol defects (CRC corruption, out-of-order ticks, records
//     before SessionMeta) close the connection but never the session -
//     a reconnecting FeedClient resumes from the status cursor and
//     completes;
//   - subscribers cannot perturb the tick loop: a slow client hits the
//     drop-oldest policy without stalling publish(), killed clients
//     are reaped, and the decision stream with 8 subscribers (some
//     killed mid-stream, one mute) is byte-identical to the
//     0-subscriber run;
//   - stop() wakes every listener, so an idle server stops at once.
//
// Runs in every CI leg including TSan (short windows, and the suite is
// the thread-heavy one - acceptor, writer and serve threads all race
// here if they race anywhere).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/experiment.h"
#include "core/workload.h"
#include "net/feed_client.h"
#include "net/http_metrics.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/subscriber_hub.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "service/event_log.h"
#include "service/live_engine.h"
#include "service/replay.h"
#include "stats/rng.h"
#include "test_support.h"

namespace cebis::net {
namespace {

constexpr int kIoMs = 5000;

// --- wire codec (no threads, no fixture) ------------------------------------

TEST(NetWireTest, TelemetryRoundTrip) {
  TelemetryFrame t;
  t.step = 42;
  t.cost_so_far = 1234.5678;
  t.energy_so_far = 9.25;
  t.bill_last = 1.5;
  t.bill_mean = 1.25;
  t.bill_ewma = 1.375;
  t.have_savings = true;
  t.savings_last = 0.5;
  t.savings_mean = 0.25;
  t.savings_ewma = 0.375;
  t.plan_rebuilds = 7;
  const TelemetryFrame back = decode_telemetry(encode_telemetry(t), 0);
  EXPECT_EQ(back.step, t.step);
  EXPECT_EQ(back.cost_so_far, t.cost_so_far);
  EXPECT_EQ(back.energy_so_far, t.energy_so_far);
  EXPECT_EQ(back.bill_ewma, t.bill_ewma);
  EXPECT_TRUE(back.have_savings);
  EXPECT_EQ(back.savings_mean, t.savings_mean);
  EXPECT_EQ(back.plan_rebuilds, t.plan_rebuilds);
}

TEST(NetWireTest, StatusAndHeadroomRoundTrip) {
  IngestStatusFrame s;
  s.has_session = true;
  s.complete = false;
  s.steps_done = 11;
  s.steps_buffered = 3;
  s.cursors = {{4, 312}, {9, 300}};
  const IngestStatusFrame back = decode_ingest_status(encode_ingest_status(s), 0);
  EXPECT_TRUE(back.has_session);
  EXPECT_FALSE(back.complete);
  EXPECT_EQ(back.steps_done, 11);
  EXPECT_EQ(back.steps_buffered, 3);
  ASSERT_EQ(back.cursors.size(), 2u);
  EXPECT_EQ(back.cursors[0].hub, 4);
  EXPECT_EQ(back.cursors[0].next_interval, 312);
  EXPECT_EQ(back.cursors[1].hub, 9);

  SealHeadroomFrame h;
  h.sealed_end = 100;
  h.needed_end = 96;
  h.steps_done = 8;
  const SealHeadroomFrame hb = decode_seal_headroom(encode_seal_headroom(h), 0);
  EXPECT_EQ(hb.sealed_end, 100);
  EXPECT_EQ(hb.needed_end, 96);
  EXPECT_EQ(hb.steps_done, 8);
}

TEST(NetWireTest, RejectsCursorCountLargerThanThePayload) {
  // A truncated/garbled IngestStatus whose cursor-count prefix claims
  // ~2^31 entries with an empty tail. Before the check_count guard,
  // decode resized the cursor vector FIRST - a multi-gigabyte
  // allocation driven by four corrupt bytes - and only then failed
  // field-by-field. The strict-reader contract wants a clean
  // malformed-payload error naming the frame offset instead.
  IngestStatusFrame s;
  s.has_session = true;
  s.complete = false;
  s.steps_done = 11;
  s.steps_buffered = 3;
  std::vector<std::uint8_t> payload = encode_ingest_status(s);
  // Overwrite the trailing u32 cursor count (0) with a huge claim.
  const std::uint32_t huge = 0x7FFFFFFFu;
  std::memcpy(payload.data() + payload.size() - sizeof(huge), &huge,
              sizeof(huge));
  try {
    (void)decode_ingest_status(payload, 1234);
    FAIL() << "oversized cursor count must throw";
  } catch (const service::EventLogError& e) {
    EXPECT_EQ(e.byte_offset(), 1234);
    EXPECT_NE(std::string(e.what()).find("length prefix"), std::string::npos)
        << e.what();
  }
}

TEST(NetWireTest, FrameTypeNames) {
  EXPECT_STREQ(frame_type_name(
                   static_cast<std::uint8_t>(service::RecordType::kPriceTick)),
               "PriceTick");
  EXPECT_STREQ(
      frame_type_name(static_cast<std::uint8_t>(NetFrameType::kTelemetry)),
      "Telemetry");
  EXPECT_STREQ(
      frame_type_name(static_cast<std::uint8_t>(NetFrameType::kIngestStatus)),
      "IngestStatus");
  EXPECT_STREQ(frame_type_name(250), "unknown");
}

/// A connected loopback socket pair (client side / accepted side).
struct SocketPair {
  Listener listener{0};
  Socket client;
  Socket server;
  SocketPair() {
    client = connect_to("127.0.0.1", listener.port(), 2000);
    std::optional<Socket> accepted = listener.accept();
    if (!accepted) throw NetError("SocketPair: no connection accepted");
    server = std::move(*accepted);
  }
};

TEST(NetWireTest, FrameReaderAcceptsCleanCloseAtBoundary) {
  SocketPair pair;
  write_frame(pair.client, static_cast<std::uint8_t>(NetFrameType::kFeedEnd),
              {}, kIoMs);
  pair.client.close();
  FrameReader reader(pair.server);
  std::optional<Frame> frame = reader.next(kIoMs);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, static_cast<std::uint8_t>(NetFrameType::kFeedEnd));
  EXPECT_TRUE(frame->payload.empty());
  EXPECT_FALSE(reader.next(kIoMs).has_value());  // orderly end of stream
}

TEST(NetWireTest, FrameReaderRejectsTornFrame) {
  SocketPair pair;
  std::vector<std::uint8_t> bytes;
  append_frame(bytes, static_cast<std::uint8_t>(NetFrameType::kTelemetry),
               encode_telemetry(TelemetryFrame{}));
  // First frame whole, second frame cut mid-payload: the reader must
  // name the offset the TORN frame began at, not the stream start.
  const std::size_t first_end = bytes.size();
  append_frame(bytes, static_cast<std::uint8_t>(NetFrameType::kTelemetry),
               encode_telemetry(TelemetryFrame{}));
  bytes.resize(first_end + 7);
  pair.client.write_all(bytes.data(), bytes.size(), kIoMs);
  pair.client.close();

  FrameReader reader(pair.server);
  EXPECT_TRUE(reader.next(kIoMs).has_value());
  try {
    (void)reader.next(kIoMs);
    FAIL() << "a torn frame must not read back";
  } catch (const WireError& e) {
    EXPECT_EQ(e.byte_offset(), static_cast<std::int64_t>(first_end));
  }
}

TEST(NetWireTest, FrameReaderRejectsCorruptCrc) {
  SocketPair pair;
  std::vector<std::uint8_t> bytes;
  append_frame(bytes, static_cast<std::uint8_t>(NetFrameType::kTelemetry),
               encode_telemetry(TelemetryFrame{}));
  bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit
  pair.client.write_all(bytes.data(), bytes.size(), kIoMs);
  FrameReader reader(pair.server);
  try {
    (void)reader.next(kIoMs);
    FAIL() << "a CRC mismatch must not read back";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST(NetWireTest, FrameReaderRejectsOversizedPayloadBeforeAllocating) {
  SocketPair pair;
  std::vector<std::uint8_t> bytes = {static_cast<std::uint8_t>(
      NetFrameType::kTelemetry)};
  const std::uint32_t huge = 0x7fffffff;
  bytes.resize(1 + sizeof(huge));
  std::memcpy(bytes.data() + 1, &huge, sizeof(huge));
  pair.client.write_all(bytes.data(), bytes.size(), kIoMs);
  FrameReader reader(pair.server, /*max_payload=*/4096);
  EXPECT_THROW((void)reader.next(kIoMs), WireError);
}

TEST(NetWireTest, FrameReaderTimesOutMidFrame) {
  SocketPair pair;
  const std::uint8_t type = static_cast<std::uint8_t>(NetFrameType::kFeedEnd);
  pair.client.write_all(&type, 1, kIoMs);  // ...and then silence
  FrameReader reader(pair.server);
  EXPECT_THROW((void)reader.next(100), TimeoutError);
}

// --- the buffered reader: many frames per recv, frames across recvs ----------

/// Frames of assorted types and sizes (empty payloads included) and the
/// byte stream that carries them.
struct FrameStream {
  std::vector<Frame> frames;
  std::vector<std::int64_t> offsets;  ///< where each frame starts
  std::vector<std::uint8_t> bytes;

  void add(std::uint8_t type, std::vector<std::uint8_t> payload) {
    offsets.push_back(static_cast<std::int64_t>(bytes.size()));
    append_frame(bytes, type, payload);
    frames.push_back(Frame{type, std::move(payload)});
  }
};

FrameStream assorted_frames(int n) {
  constexpr std::uint8_t kTypes[] = {
      static_cast<std::uint8_t>(NetFrameType::kTelemetry),
      static_cast<std::uint8_t>(NetFrameType::kSealHeadroom),
      static_cast<std::uint8_t>(NetFrameType::kFeedEnd)};
  FrameStream stream;
  for (int i = 0; i < n; ++i) {
    std::vector<std::uint8_t> payload(static_cast<std::size_t>((i * 37) % 211));
    for (std::size_t k = 0; k < payload.size(); ++k) {
      payload[k] = static_cast<std::uint8_t>(i * 7 + static_cast<int>(k));
    }
    stream.add(kTypes[i % 3], std::move(payload));
  }
  return stream;
}

/// Reads `stream`'s frames back and checks each one and the offset it
/// started at.
void expect_frames(FrameReader& reader, const FrameStream& stream) {
  for (std::size_t i = 0; i < stream.frames.size(); ++i) {
    ASSERT_EQ(reader.offset(), stream.offsets[i]) << "frame " << i;
    const std::optional<Frame> frame = reader.next(kIoMs);
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    EXPECT_EQ(frame->type, stream.frames[i].type) << "frame " << i;
    EXPECT_EQ(frame->payload, stream.frames[i].payload) << "frame " << i;
  }
  EXPECT_EQ(reader.offset(), static_cast<std::int64_t>(stream.bytes.size()));
}

// One write, one segment: the reader parses every frame out of its
// buffer, and reports the close only once they are all read.
TEST(NetWireTest, FrameReaderReadsManyFramesFromOneSegment) {
  SocketPair pair;
  const FrameStream stream = assorted_frames(64);
  pair.client.write_all(stream.bytes.data(), stream.bytes.size(), kIoMs);
  pair.client.close();
  FrameReader reader(pair.server);
  expect_frames(reader, stream);
  EXPECT_FALSE(reader.next(kIoMs).has_value());
}

TEST(NetWireTest, FrameReaderReadsAStreamDribbledOneByteAtATime) {
  SocketPair pair;
  const FrameStream stream = assorted_frames(6);
  std::thread writer([&] {
    for (const std::uint8_t byte : stream.bytes) {
      pair.client.write_all(&byte, 1, kIoMs);
    }
    pair.client.close();
  });
  FrameReader reader(pair.server);
  expect_frames(reader, stream);
  EXPECT_FALSE(reader.next(kIoMs).has_value());
  writer.join();
}

TEST(NetWireTest, FrameReaderReadsAPayloadLargerThanItsBuffer) {
  SocketPair pair;
  FrameStream stream = assorted_frames(3);
  std::vector<std::uint8_t> big(2 * FrameReader::kBufferBytes + 123);
  for (std::size_t k = 0; k < big.size(); ++k) {
    big[k] = static_cast<std::uint8_t>(k * 31 + 5);
  }
  stream.add(static_cast<std::uint8_t>(NetFrameType::kTelemetry), big);
  stream.add(static_cast<std::uint8_t>(NetFrameType::kFeedEnd), {});
  std::thread writer([&] {
    pair.client.write_all(stream.bytes.data(), stream.bytes.size(), kIoMs);
    pair.client.close();
  });
  FrameReader reader(pair.server, /*max_payload=*/big.size());
  expect_frames(reader, stream);
  EXPECT_FALSE(reader.next(kIoMs).has_value());
  writer.join();
}

TEST(NetWireTest, FrameReaderNamesTheTornFrameAfterBufferedFrames) {
  // Cut inside the next frame's header, and inside its payload: both
  // arrive in the same segment as the whole frames before them.
  for (const std::size_t cut : {std::size_t{3}, std::size_t{40}}) {
    SocketPair pair;
    const FrameStream stream = assorted_frames(9);
    std::vector<std::uint8_t> bytes = stream.bytes;
    append_frame(bytes, static_cast<std::uint8_t>(NetFrameType::kTelemetry),
                 encode_telemetry(TelemetryFrame{}));
    bytes.resize(stream.bytes.size() + cut);
    pair.client.write_all(bytes.data(), bytes.size(), kIoMs);
    pair.client.close();

    FrameReader reader(pair.server);
    expect_frames(reader, stream);
    try {
      (void)reader.next(kIoMs);
      FAIL() << "a torn frame must not read back (cut at " << cut << ")";
    } catch (const WireError& e) {
      EXPECT_EQ(e.byte_offset(),
                static_cast<std::int64_t>(stream.bytes.size()));
      EXPECT_NE(std::string(e.what()).find("torn frame"), std::string::npos)
          << e.what();
    }
  }
}

TEST(NetWireTest, FrameReaderTimesOutMidFrameAfterBufferedFrames) {
  SocketPair pair;
  const FrameStream stream = assorted_frames(5);
  std::vector<std::uint8_t> bytes = stream.bytes;
  append_frame(bytes, static_cast<std::uint8_t>(NetFrameType::kTelemetry),
               encode_telemetry(TelemetryFrame{}));
  bytes.resize(stream.bytes.size() + 20);  // ...and then silence
  pair.client.write_all(bytes.data(), bytes.size(), kIoMs);
  FrameReader reader(pair.server);
  expect_frames(reader, stream);
  EXPECT_THROW((void)reader.next(100), TimeoutError);
}

TEST(NetWireTest, StreamHeaderRejectsForeignBytes) {
  SocketPair pair;
  const char garbage[] = "GET /metrics HTTP/1.1\r\n";
  pair.client.write_all(garbage, sizeof(garbage) - 1, kIoMs);
  EXPECT_THROW((void)read_stream_header(pair.server, kIoMs), WireError);

  SocketPair pair2;
  write_stream_header(pair2.client, Channel::kSubscribe, kIoMs);
  EXPECT_EQ(read_stream_header(pair2.server, kIoMs), Channel::kSubscribe);
}

TEST(NetWireTest, FeedClientGivesUpAfterMaxAttempts) {
  std::uint16_t dead_port = 0;
  {
    Listener probe(0);
    dead_port = probe.port();
  }  // closed: connections to it are refused
  FeedClientOptions options;
  options.port = dead_port;
  options.connect_timeout_ms = 200;
  options.max_attempts = 2;
  options.initial_backoff_ms = 10;
  FeedClient client(options);
  EXPECT_THROW((void)client.run(service::SessionMeta{}, {}, {}), NetError);
}

// --- loopback sessions against a real Server --------------------------------

class NetLoopbackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new core::Fixture(core::Fixture::make(test::kTestSeed));
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static core::Fixture* fixture_;
};

core::Fixture* NetLoopbackTest::fixture_ = nullptr;

struct SessionFeed {
  service::SessionMeta meta;
  std::vector<service::PriceTickRecord> ticks;
  std::vector<service::WorkloadStepRecord> steps;
};

/// The session cebis_feed would synthesize: the fixture's own market as
/// the settlement feed, the trace as demand, over the first `hours`.
SessionFeed make_feed(const core::Fixture& fixture, std::int64_t hours) {
  SessionFeed feed;
  const Period trace = fixture.trace.period();
  const Period window{trace.begin, trace.begin + hours};
  const core::TraceWorkload demand(fixture.trace, fixture.allocation);

  feed.meta.seed = test::kTestSeed;
  feed.meta.router = "price-aware";
  feed.meta.period = window;
  feed.meta.steps_per_hour = demand.steps_per_hour();
  feed.meta.samples_per_hour = 12;

  const int sph = feed.meta.samples_per_hour;
  const Period priced{window.begin - feed.meta.delay_hours, window.end};
  const market::PriceSet& prices = fixture.prices_covering(priced, sph);
  std::vector<HubId> hubs;
  for (const core::Cluster& c : fixture.clusters) {
    bool seen = false;
    for (const HubId h : hubs) seen = seen || h.index() == c.hub.index();
    if (!seen) hubs.push_back(c.hub);
  }
  for (std::int64_t interval = priced.begin * sph;
       interval < window.end * sph; ++interval) {
    const HourIndex hour = interval / sph;
    const int sub = static_cast<int>(interval - hour * sph);
    for (const HubId hub : hubs) {
      feed.ticks.push_back({hub, interval, prices.rt_at(hub, hour, sub).value()});
    }
  }

  const std::int64_t steps = window.hours() * feed.meta.steps_per_hour;
  std::vector<double> row(demand.state_count(), 0.0);
  for (std::int64_t j = 0; j < steps; ++j) {
    demand.demand(j, row);
    feed.steps.push_back({j, row});
  }
  return feed;
}

/// The server's exact session, run in process: same LiveConfig mapping
/// as Server::Impl::open_session, same buffer-then-pump discipline,
/// same feed order (interleave_feed). The event log this writes must be
/// byte-identical to the one the server writes over the socket.
core::RunResult run_in_process(const core::Fixture& fixture,
                               const SessionFeed& feed,
                               const std::string& log_path) {
  service::LiveConfig cfg;
  cfg.router = feed.meta.router;
  cfg.router_config = feed.meta.router_config;
  cfg.period = feed.meta.period;
  cfg.steps_per_hour = feed.meta.steps_per_hour;
  cfg.samples_per_hour = feed.meta.samples_per_hour;
  cfg.energy = feed.meta.energy;
  cfg.enforce_p95 = feed.meta.enforce_p95;
  cfg.delay_hours = feed.meta.delay_hours;
  cfg.delay_steps = feed.meta.delay_steps;
  cfg.record_hourly_energy = feed.meta.record_hourly_energy;
  cfg.storage = feed.meta.storage;
  cfg.shadow_baseline = true;  // ServerOptions default

  service::EventLogWriter log(log_path);
  service::LiveEngine live(fixture, cfg, &log);
  std::deque<std::vector<double>> pending;
  const auto pump = [&] {
    while (!live.done() && !pending.empty() &&
           live.needed_end() <= live.sealed_end()) {
      live.advance(pending.front());
      pending.pop_front();
    }
  };
  for (const service::EventRecord& record :
       interleave_feed(feed.meta, feed.ticks, feed.steps)) {
    if (const auto* tick = std::get_if<service::PriceTickRecord>(&record)) {
      live.on_price_tick(tick->hub, tick->interval, tick->price);
    } else if (const auto* step =
                   std::get_if<service::WorkloadStepRecord>(&record)) {
      pending.push_back(step->demand);
    }
    pump();
  }
  EXPECT_TRUE(live.done());
  core::RunResult result = live.finish();
  log.close();
  return result;
}

/// Runs Server::serve() on a background thread; stop_and_join() (or the
/// destructor) shuts it down even when the test fails mid-session.
class ServerHarness {
 public:
  explicit ServerHarness(ServerOptions options) : server_(std::move(options)) {
    thread_ = std::thread([this] { report_ = server_.serve(); });
  }
  ~ServerHarness() { (void)stop_and_join(); }

  [[nodiscard]] Server& server() noexcept { return server_; }

  /// Waits for serve() to return on its own (a completed feed).
  ServerReport join() {
    if (thread_.joinable()) thread_.join();
    return report_;
  }

  ServerReport stop_and_join() {
    server_.stop();
    return join();
  }

 private:
  Server server_;
  std::thread thread_;
  ServerReport report_;
};

ServerOptions loopback_options(const std::string& log_path) {
  ServerOptions options;
  options.log_path = log_path;
  options.read_timeout_ms = kIoMs;
  return options;
}

/// An ingest-channel connection with the server's opening status frame
/// already consumed - the raw-protocol counterpart of FeedClient.
struct RawFeeder {
  Socket sock;
  std::optional<FrameReader> reader;
  IngestStatusFrame status;

  explicit RawFeeder(std::uint16_t port) {
    sock = connect_to("127.0.0.1", port, 2000);
    write_stream_header(sock, Channel::kIngest, kIoMs);
    reader.emplace(sock);
    std::optional<Frame> frame = reader->next(kIoMs);
    if (!frame ||
        frame->type != static_cast<std::uint8_t>(NetFrameType::kIngestStatus)) {
      throw NetError("RawFeeder: no IngestStatus after the header");
    }
    status = decode_ingest_status(frame->payload, 0);
  }

  void send(const service::EventRecord& record) {
    write_frame(sock, static_cast<std::uint8_t>(service::record_type(record)),
                service::encode_record(record), kIoMs);
  }

  /// True when the server closed the connection (the strict-reader
  /// reaction to a protocol defect).
  bool server_closed() {
    try {
      return !reader->next(kIoMs).has_value();
    } catch (const NetError&) {
      return true;  // reset instead of FIN: still closed
    }
  }
};

TEST_F(NetLoopbackTest, SocketFedSessionMatchesInProcessByteForByte) {
  test::TempFile server_log("net_session_server.eventlog");
  test::TempFile local_log("net_session_local.eventlog");
  const SessionFeed feed = make_feed(*fixture_, 2);

  ServerHarness harness(loopback_options(server_log.path()));
  FeedClientOptions client_options;
  client_options.port = harness.server().ingest_port();
  FeedClient client(client_options);
  const FeedReport sent = client.run(feed.meta, feed.ticks, feed.steps);
  const ServerReport report = harness.join();

  EXPECT_EQ(sent.connections, 1);
  EXPECT_EQ(sent.records_skipped, 0);
  EXPECT_EQ(sent.final_steps_done,
            static_cast<std::int64_t>(feed.steps.size()));
  EXPECT_EQ(report.ticks_ingested,
            static_cast<std::int64_t>(feed.ticks.size()));
  EXPECT_EQ(report.steps_ingested,
            static_cast<std::int64_t>(feed.steps.size()));
  EXPECT_EQ(report.protocol_errors, 0);
  ASSERT_TRUE(report.result.has_value());

  // The transport added nothing: the log the server wrote over the
  // socket is byte-identical to an in-process session's, and both
  // RunResults and the replay agree bit-for-bit.
  const core::RunResult local =
      run_in_process(*fixture_, feed, local_log.path());
  EXPECT_EQ(service::diff_run_results(*report.result, local), "");
  EXPECT_EQ(test::slurp(server_log.path()), test::slurp(local_log.path()));
  EXPECT_FALSE(test::slurp(server_log.path()).empty());

  const core::RunResult replayed =
      service::replay_file(*fixture_, server_log.path());
  EXPECT_EQ(service::diff_run_results(*report.result, replayed), "");
}

TEST_F(NetLoopbackTest, CorruptFrameClosesConnectionButSessionSurvives) {
  test::TempFile server_log("net_corrupt.eventlog");
  const SessionFeed feed = make_feed(*fixture_, 2);
  ServerHarness harness(loopback_options(server_log.path()));

  const std::int64_t start =
      (feed.meta.period.begin - feed.meta.delay_hours) *
      feed.meta.samples_per_hour;
  std::size_t hubs = 0;
  {
    RawFeeder feeder(harness.server().ingest_port());
    EXPECT_FALSE(feeder.status.has_session);
    feeder.send(service::EventRecord{feed.meta});
    // The first interval's ticks land clean...
    for (const service::PriceTickRecord& tick : feed.ticks) {
      if (tick.interval != start) break;
      feeder.send(service::EventRecord{tick});
      ++hubs;
    }
    // ...then a CRC-corrupted tick: the strict reader must drop the
    // connection without ingesting it.
    std::vector<std::uint8_t> bytes;
    append_frame(bytes,
                 static_cast<std::uint8_t>(service::RecordType::kPriceTick),
                 service::encode_record(
                     service::EventRecord{feed.ticks[hubs]}));
    bytes.back() ^= 0xff;
    feeder.sock.write_all(bytes.data(), bytes.size(), kIoMs);
    EXPECT_TRUE(feeder.server_closed());
  }
  ASSERT_GT(hubs, 0u);

  // The session survived with a cursor past the clean ticks: the
  // FeedClient resumes, skips exactly those, and completes the feed.
  FeedClientOptions client_options;
  client_options.port = harness.server().ingest_port();
  FeedClient client(client_options);
  const FeedReport sent = client.run(feed.meta, feed.ticks, feed.steps);
  EXPECT_EQ(sent.records_skipped, static_cast<std::int64_t>(hubs));

  const ServerReport report = harness.join();
  ASSERT_TRUE(report.result.has_value());
  EXPECT_GE(report.protocol_errors, 1);
  EXPECT_EQ(report.ingest_connections, 2);
  bool offset_logged = false;
  for (const std::string& event : report.events) {
    offset_logged = offset_logged ||
                    event.find("byte offset") != std::string::npos;
  }
  EXPECT_TRUE(offset_logged);

  // Replay-equals-live holds across the defect + resume.
  const core::RunResult replayed =
      service::replay_file(*fixture_, server_log.path());
  EXPECT_EQ(service::diff_run_results(*report.result, replayed), "");
}

TEST_F(NetLoopbackTest, OutOfOrderTickClosesConnectionButSessionSurvives) {
  test::TempFile server_log("net_out_of_order.eventlog");
  const SessionFeed feed = make_feed(*fixture_, 2);
  ServerHarness harness(loopback_options(server_log.path()));

  const std::int64_t start =
      (feed.meta.period.begin - feed.meta.delay_hours) *
      feed.meta.samples_per_hour;
  {
    RawFeeder feeder(harness.server().ingest_port());
    feeder.send(service::EventRecord{feed.meta});
    // A gap: the assembler expects `start` first, gets `start + 1`.
    feeder.send(service::EventRecord{
        service::PriceTickRecord{feed.ticks[0].hub, start + 1, 31.0}});
    EXPECT_TRUE(feeder.server_closed());
  }

  FeedClientOptions client_options;
  client_options.port = harness.server().ingest_port();
  FeedClient client(client_options);
  const FeedReport sent = client.run(feed.meta, feed.ticks, feed.steps);
  EXPECT_EQ(sent.records_skipped, 0);  // the bad tick never took effect

  const ServerReport report = harness.join();
  ASSERT_TRUE(report.result.has_value());
  EXPECT_GE(report.protocol_errors, 1);
  const core::RunResult replayed =
      service::replay_file(*fixture_, server_log.path());
  EXPECT_EQ(service::diff_run_results(*report.result, replayed), "");
}

TEST_F(NetLoopbackTest, RecordsBeforeSessionMetaAreRejected) {
  test::TempFile server_log("net_no_meta.eventlog");
  ServerHarness harness(loopback_options(server_log.path()));
  {
    RawFeeder feeder(harness.server().ingest_port());
    feeder.send(service::EventRecord{
        service::PriceTickRecord{HubId{0}, 0, 10.0}});
    EXPECT_TRUE(feeder.server_closed());
  }
  const ServerReport report = harness.stop_and_join();
  EXPECT_FALSE(report.result.has_value());
  EXPECT_GE(report.protocol_errors, 1);
}

TEST_F(NetLoopbackTest, SessionMetaSeedMustMatchEmbeddedFixture) {
  test::TempFile server_log("net_seed_mismatch.eventlog");
  ServerOptions options = loopback_options(server_log.path());
  options.fixture = fixture_;
  ServerHarness harness(options);
  {
    RawFeeder feeder(harness.server().ingest_port());
    service::SessionMeta meta;
    meta.seed = test::kTestSeed + 1;  // not the embedded fixture's
    feeder.send(service::EventRecord{meta});
    EXPECT_TRUE(feeder.server_closed());
  }
  const ServerReport report = harness.stop_and_join();
  EXPECT_FALSE(report.result.has_value());
  EXPECT_GE(report.protocol_errors, 1);
}

/// Waits up to 10 s for `hub`'s acceptor to register a subscriber.
bool await_first_subscriber(const SubscriberHub& hub) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (hub.subscriber_count() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return hub.subscriber_count() == 1;
}

TEST_F(NetLoopbackTest, SlowSubscriberHitsDropPolicyWithoutStallingPublish) {
  SubscriberHubOptions options;
  options.queue_capacity = 4;
  options.write_timeout_ms = 500;
  SubscriberHub hub(options);

  // Publishing into an empty room is free.
  hub.publish(static_cast<std::uint8_t>(NetFrameType::kFeedEnd), {});
  EXPECT_EQ(hub.dropped_frames(), 0);

  // A subscriber that handshakes and then never reads a byte.
  Socket mute = connect_to("127.0.0.1", hub.port(), 2000);
  write_stream_header(mute, Channel::kSubscribe, kIoMs);
  ASSERT_TRUE(await_first_subscriber(hub));

  // 128 quarter-MiB frames (32 MiB total) overflow the socket buffers
  // and the 4-deep queue many times over. publish() must shrug it all
  // off without ever blocking on the wedged client.
  const std::vector<std::uint8_t> fat(256u << 10, 0xab);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 128; ++i) {
    hub.publish(static_cast<std::uint8_t>(NetFrameType::kTelemetry), fat);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            20'000);  // generous for TSan; the real bound is ~milliseconds
  EXPECT_GT(hub.dropped_frames(), 0);
  hub.stop();
  EXPECT_EQ(hub.total_connected(), 1);
}

TEST_F(NetLoopbackTest, SubscribersCannotPerturbTheDecisionStream) {
  test::TempFile server_log("net_subscribers.eventlog");
  test::TempFile local_log("net_subscribers_local.eventlog");
  const SessionFeed feed = make_feed(*fixture_, 2);

  ServerOptions options = loopback_options(server_log.path());
  options.subscriber_queue_capacity = 8;  // make drops plausible
  options.fixture = fixture_;  // the embedded-fixture path
  ServerHarness harness(options);
  const std::uint16_t sub_port = harness.server().subscribe_port();

  // Eight subscribers: five read everything, two disconnect after a
  // couple of frames (the mid-stream kill), one is mute until the end.
  std::atomic<int> feed_ends{0};
  std::atomic<int> frames_seen{0};
  std::atomic<bool> session_over{false};
  std::vector<std::thread> subscribers;
  for (int i = 0; i < 5; ++i) {
    subscribers.emplace_back([&] {
      try {
        Socket sock = connect_to("127.0.0.1", sub_port, 2000);
        write_stream_header(sock, Channel::kSubscribe, kIoMs);
        FrameReader reader(sock);
        while (std::optional<Frame> frame = reader.next(kIoMs)) {
          ++frames_seen;
          if (frame->type ==
              static_cast<std::uint8_t>(NetFrameType::kFeedEnd)) {
            ++feed_ends;
            break;
          }
        }
      } catch (const NetError&) {
        // A drop-policy close is fine; the asserts below are about the
        // session, not about any one subscriber's luck.
      } catch (const service::EventLogError&) {
      }
    });
  }
  for (int i = 0; i < 2; ++i) {
    subscribers.emplace_back([&] {
      try {
        Socket sock = connect_to("127.0.0.1", sub_port, 2000);
        write_stream_header(sock, Channel::kSubscribe, kIoMs);
        FrameReader reader(sock);
        (void)reader.next(kIoMs);
        (void)reader.next(kIoMs);
      } catch (const NetError&) {
      } catch (const service::EventLogError&) {
      }  // then the socket closes: the kill
    });
  }
  subscribers.emplace_back([&] {
    try {
      Socket sock = connect_to("127.0.0.1", sub_port, 2000);
      write_stream_header(sock, Channel::kSubscribe, kIoMs);
      while (!session_over.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    } catch (const NetError&) {
    }
  });

  FeedClientOptions client_options;
  client_options.port = harness.server().ingest_port();
  FeedClient client(client_options);
  (void)client.run(feed.meta, feed.ticks, feed.steps);
  const ServerReport report = harness.join();
  session_over.store(true);
  for (std::thread& t : subscribers) t.join();

  ASSERT_TRUE(report.result.has_value());
  EXPECT_EQ(report.subscribers_connected, 8);
  EXPECT_GT(frames_seen.load(), 0);
  EXPECT_GT(feed_ends.load(), 0);  // well-behaved readers got the tail

  // The headline assert: with 8 subscribers of every temperament the
  // session's log - decisions included - is byte-identical to the
  // in-process (0-subscriber) run's, and so is the RunResult.
  const core::RunResult local =
      run_in_process(*fixture_, feed, local_log.path());
  EXPECT_EQ(service::diff_run_results(*report.result, local), "");
  EXPECT_EQ(test::slurp(server_log.path()), test::slurp(local_log.path()));

  const service::RecordedSession session =
      service::read_session(server_log.path());
  EXPECT_EQ(session.decisions.size(), feed.steps.size());
}

TEST_F(NetLoopbackTest, HttpEndpointServesPrometheusText) {
  obs::MetricsRegistry registry;
  obs::Counter scrapes =
      registry.counter("cebis_test_scrapes_total", "test counter");
  scrapes.add();

  HttpMetricsOptions options;
  options.registry = &registry;
  HttpMetricsServer http(options);

  const auto request = [&](const std::string& head) {
    Socket sock = connect_to("127.0.0.1", http.port(), 2000);
    const std::string req = head + "\r\nHost: localhost\r\n\r\n";
    sock.write_all(req.data(), req.size(), kIoMs);
    std::string response;
    char buf[4096];
    for (;;) {
      std::size_t n = 0;
      try {
        n = sock.read_some(buf, sizeof(buf), kIoMs);
      } catch (const NetError&) {
        break;
      }
      if (n == 0) break;
      response.append(buf, n);
    }
    return response;
  };

  const std::string ok = request("GET /metrics HTTP/1.1");
  EXPECT_NE(ok.find("200 OK"), std::string::npos);
  EXPECT_NE(ok.find("text/plain"), std::string::npos);
  EXPECT_NE(ok.find("cebis_test_scrapes_total"), std::string::npos);

  EXPECT_NE(request("GET /nope HTTP/1.1").find("404"), std::string::npos);
  EXPECT_NE(request("POST /metrics HTTP/1.1").find("405"), std::string::npos);
  EXPECT_EQ(http.requests_served(), 3);
  http.stop();
}

TEST_F(NetLoopbackTest, SessionStreamReadsBackAcrossRandomChunking) {
  // A real 24-hour session's feed, as FeedClient frames it, written in
  // chunks split at seeded random points: from single bytes (frames torn
  // across many recvs) to tens of KiB (many frames per recv).
  const SessionFeed feed = make_feed(*fixture_, 24);
  FrameStream stream;
  const service::EventRecord meta{feed.meta};
  stream.add(static_cast<std::uint8_t>(service::record_type(meta)),
             service::encode_record(meta));
  for (const service::EventRecord& record :
       interleave_feed(feed.meta, feed.ticks, feed.steps)) {
    stream.add(static_cast<std::uint8_t>(service::record_type(record)),
               service::encode_record(record));
  }
  stats::Rng rng = test::test_rng(1301);
  std::vector<std::size_t> chunks;
  for (std::size_t left = stream.bytes.size(); left > 0;) {
    const std::size_t want =
        rng.bernoulli(0.5) ? 1 + rng.index(16) : 1 + rng.index(48u << 10);
    chunks.push_back(std::min(want, left));
    left -= chunks.back();
  }

  SocketPair pair;
  std::thread writer([&] {
    std::size_t at = 0;
    for (const std::size_t n : chunks) {
      pair.client.write_all(stream.bytes.data() + at, n, kIoMs);
      at += n;
    }
    pair.client.close();
  });
  FrameReader reader(pair.server);
  expect_frames(reader, stream);
  EXPECT_FALSE(reader.next(kIoMs).has_value());
  writer.join();
  EXPECT_GT(stream.frames.size(), 2000u);
}

TEST_F(NetLoopbackTest, SubscriberHubDeliversABurstCompleteAndInOrder) {
  SubscriberHubOptions options;
  options.queue_capacity = 64;
  SubscriberHub hub(options);
  Socket sock = connect_to("127.0.0.1", hub.port(), 2000);
  write_stream_header(sock, Channel::kSubscribe, kIoMs);
  ASSERT_TRUE(await_first_subscriber(hub));

  // A full queue's worth of frames, published faster than the writer
  // drains them, to a subscriber that starts reading late.
  std::vector<std::uint8_t> expected;
  for (std::size_t i = 0; i < options.queue_capacity; ++i) {
    std::vector<std::uint8_t> payload(8 + (i * 53) % 300);
    for (std::size_t k = 0; k < payload.size(); ++k) {
      payload[k] = static_cast<std::uint8_t>(i ^ k);
    }
    const auto type = static_cast<std::uint8_t>(
        i % 2 == 0 ? NetFrameType::kTelemetry : NetFrameType::kSealHeadroom);
    hub.publish(type, payload);
    append_frame(expected, type, payload);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::vector<std::uint8_t> got(expected.size());
  ASSERT_TRUE(sock.read_exact(got.data(), got.size(), kIoMs));
  EXPECT_EQ(got, expected);
  EXPECT_TRUE(hub.drain(kIoMs));
  EXPECT_EQ(hub.dropped_frames(), 0);
  hub.stop();
  std::uint8_t extra = 0;
  EXPECT_EQ(sock.read_some(&extra, 1, kIoMs), 0u);  // nothing more was sent
}

TEST_F(NetLoopbackTest, ProtocolErrorNamesTheOffendingFrameStart) {
  test::TempFile server_log("net_error_offset.eventlog");
  const SessionFeed feed = make_feed(*fixture_, 2);
  ServerOptions options = loopback_options(server_log.path());
  options.fixture = fixture_;
  ServerHarness harness(options);

  const auto frame_bytes = [](const service::EventRecord& record) {
    std::vector<std::uint8_t> bytes;
    append_frame(bytes, static_cast<std::uint8_t>(service::record_type(record)),
                 service::encode_record(record));
    return static_cast<std::int64_t>(bytes.size());
  };
  std::int64_t bad_offset = 0;
  {
    RawFeeder feeder(harness.server().ingest_port());
    std::vector<service::EventRecord> clean = {service::EventRecord{feed.meta}};
    for (std::size_t k = 0; k < 5; ++k) clean.emplace_back(feed.ticks[k]);
    for (const service::EventRecord& record : clean) {
      feeder.send(record);
      bad_offset += frame_bytes(record);
    }
    // The 7th frame: step 2 where step 0 is due.
    feeder.send(service::EventRecord{feed.steps[2]});
    EXPECT_TRUE(feeder.server_closed());
  }
  const ServerReport report = harness.stop_and_join();
  EXPECT_EQ(report.protocol_errors, 1);
  const std::string where = "(byte offset " + std::to_string(bad_offset) + ")";
  bool named = false;
  std::string events;
  for (const std::string& event : report.events) {
    named = named || (event.find("WorkloadStep out of order") !=
                          std::string::npos &&
                      event.find(where) != std::string::npos);
    events += event + "\n";
  }
  EXPECT_TRUE(named) << "want " << where << " in:\n" << events;
}

TEST_F(NetLoopbackTest, IdleServerStopReturnsPromptly) {
  // No timeout is left in any accept wait, so this passing at all means
  // stop() woke the ingest, subscriber and HTTP listeners; the bound is
  // only a liveness check.
  test::TempFile server_log("net_idle_stop.eventlog");
  ServerHarness harness(loopback_options(server_log.path()));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t0 = std::chrono::steady_clock::now();
  const ServerReport report = harness.stop_and_join();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
      2000);
  EXPECT_FALSE(report.result.has_value());
  EXPECT_EQ(report.ingest_connections, 0);
}

TEST_F(NetLoopbackTest, StopDuringOpenFeedReturnsPromptly) {
  // A feeder that connected and then went quiet holds serve() in a
  // read; stop() must end that read instead of waiting out the read
  // deadline (set far beyond the bound so a missed wake-up fails).
  test::TempFile server_log("net_open_feed_stop.eventlog");
  ServerOptions options = loopback_options(server_log.path());
  options.read_timeout_ms = 10000;
  ServerHarness harness(options);
  RawFeeder feeder(harness.server().ingest_port());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t0 = std::chrono::steady_clock::now();
  const ServerReport report = harness.stop_and_join();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
      2000);
  EXPECT_FALSE(report.result.has_value());
  EXPECT_EQ(report.ingest_connections, 1);
  EXPECT_EQ(report.protocol_errors, 0);
  EXPECT_TRUE(feeder.server_closed());
}

}  // namespace
}  // namespace cebis::net
