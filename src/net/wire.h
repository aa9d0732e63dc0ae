#ifndef CEBIS_NET_WIRE_H
#define CEBIS_NET_WIRE_H

// The service's wire protocol.
//
// A connection opens with a stream header naming its channel, then
// carries frames in EXACTLY the event log's frame format
// (service/frame.h):
//
//   stream header := magic "CEBISNET" | u32 version (=2) | u8 channel
//   frame         := u8 type | u32 payload_len | payload | u32 crc32
//
// Record types 1..5 reuse the EventLog record codec byte for byte, so
// the server can hand an ingested frame's payload straight to
// service::decode_record and the log it appends is indistinguishable
// from one written in-process - the replay-equals-live contract
// extends over the socket. Types >= 32 are net-only control/telemetry
// messages that never appear in a log file.
//
// Reading is strict, with the event log's error: a foreign header, an
// oversized, torn or corrupt frame or a malformed payload raise
// service::EventLogError naming the byte offset into the stream where
// the offending frame began - the server logs it and closes the
// connection, never resynchronizes.

#include <cstdint>
#include <optional>
#include <vector>

#include "base/ids.h"
#include "net/socket.h"
#include "service/event_log.h"
#include "service/frame.h"

namespace cebis::net {

inline constexpr char kNetMagic[8] = {'C', 'E', 'B', 'I', 'S', 'N', 'E', 'T'};
inline constexpr std::uint32_t kNetVersion = 2;

/// What a connection is for; the server dispatches on it at accept.
enum class Channel : std::uint8_t {
  kIngest = 1,     ///< feeder -> server: SessionMeta, ticks, steps, FeedEnd
  kSubscribe = 2,  ///< server -> client: decisions, telemetry, headroom
};

/// Net-only frame types (disjoint from service::RecordType's 1..5).
enum class NetFrameType : std::uint8_t {
  kTelemetry = 32,     ///< server -> subscribers, once per advanced step
  kSealHeadroom = 33,  ///< server -> subscribers, once per advanced step
  kFeedEnd = 34,       ///< feeder -> server: the feed is complete
  kIngestStatus = 35,  ///< server -> feeder: resume cursor (on connect + ack)
};

/// Rolling dollar telemetry after one advanced step (the subscriber
/// view of service::LiveTelemetry).
struct TelemetryFrame {
  std::int64_t step = 0;  ///< steps completed (the step just advanced + 1)
  double cost_so_far = 0.0;
  double energy_so_far = 0.0;
  double bill_last = 0.0;
  double bill_mean = 0.0;
  double bill_ewma = 0.0;
  bool have_savings = false;  ///< shadow baseline engaged
  double savings_last = 0.0;
  double savings_mean = 0.0;
  double savings_ewma = 0.0;
  std::int64_t plan_rebuilds = 0;
};

/// How far the tick stream runs ahead of the simulation.
struct SealHeadroomFrame {
  std::int64_t sealed_end = 0;  ///< one past the last interval sealed
  std::int64_t needed_end = 0;  ///< one past the last interval the next step needs
  std::int64_t steps_done = 0;
};

/// The server's resume cursor, sent right after the ingest stream
/// header on every connection and as the ack to kFeedEnd. A feeder
/// resumes by skipping ticks below each hub's cursor and steps below
/// steps_done - reconnection needs no other handshake.
struct IngestStatusFrame {
  bool has_session = false;   ///< false: send SessionMeta first
  bool complete = false;      ///< session finished (the kFeedEnd ack)
  std::int64_t steps_done = 0;
  /// Steps received and buffered but not yet advanced (waiting on
  /// unsealed prices); a resuming feeder skips steps below
  /// steps_done + steps_buffered.
  std::int64_t steps_buffered = 0;
  struct HubCursor {
    std::int32_t hub = 0;
    std::int64_t next_interval = 0;  ///< first interval not yet settled
  };
  std::vector<HubCursor> cursors;
};

using service::Frame;

/// Human-readable frame type name: the record names for 1..5, the
/// net-only names for 32..35, "unknown" otherwise.
[[nodiscard]] const char* frame_type_name(std::uint8_t type);

// --- stream headers ---------------------------------------------------------

void write_stream_header(Socket& sock, Channel channel, int timeout_ms);

/// Validates magic + version and returns the channel. Throws
/// service::EventLogError on a foreign or torn header, TimeoutError
/// past the deadline.
[[nodiscard]] Channel read_stream_header(Socket& sock, int timeout_ms);

// --- frame I/O --------------------------------------------------------------

using service::append_frame;

void write_frame(Socket& sock, std::uint8_t type,
                 const std::vector<std::uint8_t>& payload, int timeout_ms);

/// service::FrameReader over a socket, each read waiting at most the
/// `timeout_ms` given to next(). It buffers past the current frame, so
/// it owns every read on its socket: read the stream header first.
class FrameReader {
 public:
  static constexpr std::size_t kBufferBytes =
      service::FrameReader::kBufferBytes;

  explicit FrameReader(Socket& sock,
                       std::size_t max_payload = service::kMaxFramePayload);

  /// The next frame, or nullopt on orderly peer close at a frame
  /// boundary with nothing buffered. Throws service::EventLogError
  /// (oversized, torn or corrupt frame), TimeoutError when `timeout_ms`
  /// passes mid-frame, NetError when the socket itself fails.
  [[nodiscard]] std::optional<Frame> next(int timeout_ms);

  /// Byte offset the next frame starts at (stream header excluded).
  [[nodiscard]] std::int64_t offset() const noexcept {
    return frames_.offset();
  }

 private:
  Socket& sock_;
  service::FrameReader frames_;
};

// --- net-only payload codecs ------------------------------------------------
//
// decode_* take the frame's payload and the offset its frame began at
// (for EventLogError provenance), mirroring service::decode_record.

[[nodiscard]] std::vector<std::uint8_t> encode_telemetry(const TelemetryFrame& t);
[[nodiscard]] TelemetryFrame decode_telemetry(
    const std::vector<std::uint8_t>& payload, std::int64_t offset);

[[nodiscard]] std::vector<std::uint8_t> encode_seal_headroom(
    const SealHeadroomFrame& s);
[[nodiscard]] SealHeadroomFrame decode_seal_headroom(
    const std::vector<std::uint8_t>& payload, std::int64_t offset);

[[nodiscard]] std::vector<std::uint8_t> encode_ingest_status(
    const IngestStatusFrame& s);
[[nodiscard]] IngestStatusFrame decode_ingest_status(
    const std::vector<std::uint8_t>& payload, std::int64_t offset);

}  // namespace cebis::net

#endif  // CEBIS_NET_WIRE_H
