// One frame reader, two sources: a seeded mutation test over a real
// recorded session.
//
// The event log (service::EventLogReader, reading a file) and the
// socket transport (net::FrameReader, reading a connection) share one
// strict frame parser (service/frame.h). This suite records a short
// live session, then corrupts its frame region a few hundred ways -
// byte flips, truncations, length-prefix rewrites, and payload or type
// rewrites with the CRC resealed (so decode_record sees them) - and
// reads every image both ways. Each must reach the same verdict: the
// same records, then either a clean end or an EventLogError naming the
// same frame (the file offset is the socket offset plus the 16-byte
// log header). No other exception type may escape either reader.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/workload.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/event_log.h"
#include "service/live_engine.h"
#include "stats/rng.h"
#include "test_support.h"

namespace cebis {
namespace {

constexpr std::int64_t kLogHeader = 16;  // magic + version + reserved
constexpr int kIoMs = 5000;

/// Records a one-hour live session at 5-minute steps, with storage so
/// every record type appears, and returns the log's bytes.
std::string record_session(const std::string& path) {
  const core::Fixture fixture = core::Fixture::make(test::kTestSeed);
  const core::TraceWorkload demand(fixture.trace, fixture.allocation);
  service::LiveConfig config;
  const Period trace = fixture.trace.period();
  config.period = Period{trace.begin, trace.begin + 1};
  config.steps_per_hour = demand.steps_per_hour();
  config.samples_per_hour = 12;
  core::StorageSpec storage;
  storage.battery.capacity = MegawattHours{1.0};
  storage.battery.max_charge = Watts{400'000.0};
  storage.battery.max_discharge = Watts{400'000.0};
  storage.policy = "arbitrage";
  config.storage = storage;

  service::EventLogWriter log(path);
  service::LiveEngine live(fixture, config, &log);
  std::vector<HubId> hubs;
  for (const HubId hub : live.tracked_hubs()) {
    if (std::find(hubs.begin(), hubs.end(), hub) == hubs.end()) {
      hubs.push_back(hub);
    }
  }
  const int sph = config.samples_per_hour;
  const Period priced{config.period.begin - config.delay_hours,
                      config.period.end};
  const market::PriceSet& prices = fixture.prices_covering(priced, sph);
  for (std::int64_t interval = priced.begin * sph; interval < priced.end * sph;
       ++interval) {
    const HourIndex hour = interval / sph;
    const int sub = static_cast<int>(interval - hour * sph);
    for (const HubId hub : hubs) {
      live.on_price_tick(hub, interval, prices.rt_at(hub, hour, sub).value());
    }
  }
  std::vector<double> row(demand.state_count());
  for (std::int64_t step = 0; step < live.steps_total(); ++step) {
    demand.demand(step, row);
    live.advance(row);
  }
  (void)live.finish();
  log.close();
  return test::slurp(path);
}

/// What a reader made of an image: the records it produced (type tag
/// and re-encoded payload) and, when it stopped on a defect, the byte
/// offset the EventLogError named.
struct Verdict {
  std::vector<std::vector<std::uint8_t>> records;
  std::optional<std::int64_t> error_at;
  std::string error;
};

void add_record(Verdict& v, const service::EventRecord& record) {
  std::vector<std::uint8_t> bytes = service::encode_record(record);
  bytes.insert(bytes.begin(),
               static_cast<std::uint8_t>(service::record_type(record)));
  v.records.push_back(std::move(bytes));
}

Verdict read_file(const std::string& path) {
  Verdict v;
  try {
    service::EventLogReader reader(path);
    while (const std::optional<service::EventRecord> record = reader.next()) {
      add_record(v, *record);
    }
  } catch (const service::EventLogError& e) {
    v.error_at = e.byte_offset();
    v.error = e.what();
  }
  return v;
}

/// The frame region of `image` over a loopback connection, read the way
/// the server reads its feed: frames, then decode_record.
Verdict read_socket(const std::string& image) {
  net::Listener listener(0);
  net::Socket client = net::connect_to("127.0.0.1", listener.port(), 2000);
  std::optional<net::Socket> server = listener.accept();
  if (!server) throw net::NetError("no connection accepted");
  std::thread writer([&] {
    client.write_all(image.data() + kLogHeader, image.size() - kLogHeader,
                     kIoMs);
    client.close();
  });
  Verdict v;
  try {
    net::FrameReader reader(*server);
    for (;;) {
      const std::int64_t offset = reader.offset();
      const std::optional<net::Frame> frame = reader.next(kIoMs);
      if (!frame) break;
      add_record(v, service::decode_record(frame->type, frame->payload,
                                           offset));
    }
  } catch (const service::EventLogError& e) {
    v.error_at = e.byte_offset() + kLogHeader;
    v.error = e.what();
  }
  writer.join();
  return v;
}

/// Byte offsets where each frame of `image` starts.
std::vector<std::size_t> frame_starts(const std::string& image) {
  std::vector<std::size_t> starts;
  for (std::size_t at = kLogHeader; at + 5 <= image.size();) {
    starts.push_back(at);
    std::uint32_t len = 0;
    std::memcpy(&len, image.data() + at + 1, sizeof(len));
    at += 1 + sizeof(len) + len + sizeof(std::uint32_t);
  }
  return starts;
}

TEST(FrameMutationTest, FileAndSocketReachTheSameVerdict) {
  test::TempFile source("frame_mutation_source.eventlog");
  const std::string original = record_session(source.path());
  const std::vector<std::size_t> starts = frame_starts(original);
  ASSERT_GT(starts.size(), 50u);

  // The unmutated session reads back whole both ways.
  const Verdict clean = read_file(source.path());
  EXPECT_FALSE(clean.error_at.has_value()) << clean.error;
  EXPECT_EQ(clean.records.size(), starts.size());
  EXPECT_EQ(read_socket(original).records, clean.records);

  stats::Rng rng = test::test_rng(1501);
  test::TempFile file("frame_mutation_case.eventlog");
  const std::size_t region = original.size() - kLogHeader;
  int unsealed = 0;
  int rejected = 0;
  int resealed_rejected = 0;
  constexpr int kCases = 400;
  for (int i = 0; i < kCases; ++i) {
    std::string image = original;
    std::string what;
    const bool reseal = i % 4 == 3;
    switch (i % 4) {
      case 0: {  // flip bits of one byte
        const std::size_t at = kLogHeader + rng.index(region);
        image[at] = static_cast<char>(image[at] ^ (1 + rng.index(255)));
        what = "flip at " + std::to_string(at);
        break;
      }
      case 1: {  // cut the log short
        image.resize(kLogHeader + rng.index(region));
        what = "truncate to " + std::to_string(image.size());
        break;
      }
      case 2: {  // rewrite one frame's length prefix
        const std::size_t at = starts[rng.index(starts.size())];
        std::uint32_t len = 0;
        std::memcpy(&len, image.data() + at + 1, sizeof(len));
        const std::uint32_t choices[] = {
            0u,
            len + 1 + static_cast<std::uint32_t>(rng.index(8)),
            len > 8 ? len - 1 - static_cast<std::uint32_t>(rng.index(8)) : 0u,
            static_cast<std::uint32_t>(service::kMaxFramePayload),
            static_cast<std::uint32_t>(service::kMaxFramePayload) + 1,
            0xFFFFFFF0u,
            static_cast<std::uint32_t>(rng.index(0xFFFFFFFFu)),
        };
        len = choices[rng.index(std::size(choices))];
        std::memcpy(image.data() + at + 1, &len, sizeof(len));
        what = "length " + std::to_string(len) + " at " + std::to_string(at);
        break;
      }
      default: {  // rewrite a type or payload byte and reseal the CRC
        const std::size_t at = starts[rng.index(starts.size())];
        std::uint32_t len = 0;
        std::memcpy(&len, image.data() + at + 1, sizeof(len));
        const std::size_t pos =
            at + (len == 0 || rng.bernoulli(0.1) ? 0 : 5 + rng.index(len));
        image[pos] = static_cast<char>(image[pos] ^ (1 + rng.index(255)));
        const std::uint32_t crc = service::crc32(
            reinterpret_cast<const std::uint8_t*>(image.data() + at), 5 + len);
        std::memcpy(image.data() + at + 5 + len, &crc, sizeof(crc));
        what = "resealed flip at " + std::to_string(pos);
        break;
      }
    }
    {
      std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
      out.write(image.data(), static_cast<std::streamsize>(image.size()));
    }
    try {
      const Verdict from_file = read_file(file.path());
      const Verdict from_socket = read_socket(image);
      EXPECT_EQ(from_file.records, from_socket.records) << what;
      EXPECT_EQ(from_file.error_at, from_socket.error_at)
          << what << "\n  file:   " << from_file.error
          << "\n  socket: " << from_socket.error;
      if (from_file.error_at) {
        ++(reseal ? resealed_rejected : rejected);
        // The named offset is a frame start, at or before the mutation.
        EXPECT_TRUE(std::binary_search(
            starts.begin(), starts.end(),
            static_cast<std::size_t>(*from_file.error_at)))
            << what << ": " << from_file.error;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": escaped as " << e.what();
    }
    unsealed += reseal ? 0 : 1;
  }
  // Without a resealed CRC nearly every corruption is caught (only a cut
  // exactly on a frame boundary reads clean). A resealed flip inside a
  // double decodes, so only some of those are payload defects.
  EXPECT_GT(rejected, unsealed * 9 / 10);
  EXPECT_GT(resealed_rejected, 0);
}

}  // namespace
}  // namespace cebis
