#ifndef CEBIS_SERVICE_EVENT_LOG_H
#define CEBIS_SERVICE_EVENT_LOG_H

// Compact binary event log for the live service mode.
//
// A live session appends one frame per event: the session's static
// configuration (SessionMeta, always the first frame), every price tick
// the engine ingested, every workload step it advanced, and - as audit
// records - the routing decision and battery action of each step. The
// inputs (meta + ticks + steps) are sufficient to re-run the session
// through the batch engine; doubles round-trip as raw IEEE-754 bits, so
// the replay sees byte-identical inputs and the determinism guards make
// its RunResult byte-identical too (the replay-equals-live contract,
// see service/replay.h).
//
// Format (little-endian, the only byte order the toolchain targets):
//
//   header   := magic "CEBISLOG" | u32 version (=1) | u32 reserved (=0)
//   frame    := u8 type | u32 payload_len | payload | u32 crc32
//   crc32    := IEEE 802.3 CRC of (type | payload_len | payload)
//
// The reader is strict: a torn final frame (EOF mid-frame), a CRC
// mismatch, an unknown record type or a malformed payload all raise
// EventLogError naming the byte offset of the offending frame - never a
// silent partial replay.

#include <cstdint>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "base/ids.h"
#include "base/simtime.h"
#include "core/scenario.h"
#include "obs/metrics.h"
#include "obs/taps.h"

namespace cebis::service {

inline constexpr char kEventLogMagic[8] = {'C', 'E', 'B', 'I',
                                           'S', 'L', 'O', 'G'};
inline constexpr std::uint32_t kEventLogVersion = 1;

/// Frame types (the u8 on the wire).
enum class RecordType : std::uint8_t {
  kSessionMeta = 1,
  kPriceTick = 2,
  kWorkloadStep = 3,
  kRoutingDecision = 4,
  kStorageAction = 5,
};

/// The session's static configuration: everything replay needs to
/// rebuild the fixture-derived environment (clusters, distances,
/// router) and the engine config. Router configuration is restricted to
/// the registry's value-typed configs (the RouterConfig variant);
/// storage, when carried, must use an empty per-cluster override and a
/// default PolicyConfig - the writer rejects specs it cannot round-trip
/// exactly rather than logging a lossy approximation.
struct SessionMeta {
  std::uint64_t seed = 2009;        ///< Fixture::make seed
  std::string router = "price-aware";
  core::RouterConfig router_config{};
  Period period{0, 0};              ///< workload window (hours)
  int steps_per_hour = 1;
  int samples_per_hour = 1;         ///< native market interval
  int delay_hours = 1;
  int delay_steps = 0;
  bool enforce_p95 = true;
  std::uint32_t n_states = 0;
  std::uint32_t n_clusters = 0;
  energy::EnergyModelParams energy;
  /// True when the live run attached a native-interval
  /// HourlyEnergyRecorder; replay attaches one too so the RunResults
  /// stay field-for-field comparable.
  bool record_hourly_energy = false;
  std::optional<core::StorageSpec> storage;
};

/// The ScenarioSpec a session runs: what the live engine and replay
/// both build the clusters, router and engine from (core::engine_recipe),
/// so the two construct identical environments. Throws
/// std::invalid_argument when samples_per_hour does not divide 60.
[[nodiscard]] core::ScenarioSpec spec_of(const SessionMeta& meta);

struct PriceTickRecord {
  HubId hub;
  std::int64_t interval = 0;  ///< absolute native interval (hour*sph + sub)
  double price = 0.0;         ///< $/MWh settlement
};

struct WorkloadStepRecord {
  std::int64_t step = 0;
  std::vector<double> demand;  ///< per-state demand (hits/s)
};

struct RoutingDecisionRecord {
  std::int64_t step = 0;
  std::vector<double> cluster_load;  ///< per-cluster routed load (hits/s)
};

struct StorageActionRecord {
  std::int64_t step = 0;
  /// Per-cluster battery state-of-charge delta over the step (MWh;
  /// > 0 charged, < 0 discharged to serve load).
  std::vector<double> soc_delta_mwh;
};

using EventRecord = std::variant<SessionMeta, PriceTickRecord,
                                 WorkloadStepRecord, RoutingDecisionRecord,
                                 StorageActionRecord>;

/// Raised on any structural log defect; `byte_offset` names where the
/// offending frame (or the truncation) starts in the file.
class EventLogError : public std::runtime_error {
 public:
  EventLogError(std::string message, std::int64_t byte_offset)
      : std::runtime_error(std::move(message) + " (byte offset " +
                           std::to_string(byte_offset) + ")"),
        byte_offset_(byte_offset) {}

  [[nodiscard]] std::int64_t byte_offset() const noexcept {
    return byte_offset_;
  }

 private:
  std::int64_t byte_offset_;
};

class EventLogWriter {
 public:
  /// Opens `path` (truncating) and writes the header. Throws
  /// std::runtime_error when the file cannot be opened. `taps`
  /// (obs::Taps, borrowed, may be null) receives frame/byte counters
  /// and a span per frame written; the wire format is independent of it.
  explicit EventLogWriter(const std::string& path, obs::Taps taps = {});

  void write(const SessionMeta& meta);
  void write(const PriceTickRecord& tick);
  void write(const WorkloadStepRecord& step);
  void write(const RoutingDecisionRecord& decision);
  void write(const StorageActionRecord& action);

  /// Flushes and closes; later writes throw std::logic_error.
  void close();

  [[nodiscard]] std::int64_t bytes_written() const noexcept { return bytes_; }
  [[nodiscard]] std::int64_t frames() const noexcept { return frames_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  void frame(RecordType type, const std::vector<std::uint8_t>& payload);

  std::string path_;
  std::ofstream out_;
  std::int64_t bytes_ = 0;
  std::int64_t frames_ = 0;
  bool closed_ = false;
  obs::Counter m_frames_;
  obs::Counter m_bytes_;
  obs::Tracer* tracer_ = nullptr;
};

class EventLogReader {
 public:
  /// Opens `path` and validates the header (magic + version). Throws
  /// EventLogError on a missing/truncated/foreign header. `taps`
  /// (obs::Taps, borrowed, may be null) receives frame/byte counters
  /// plus a CRC-failure counter (bumped before the EventLogError is
  /// raised) and a span per frame read; parsing is independent of it.
  explicit EventLogReader(const std::string& path, obs::Taps taps = {});

  /// The next record, or nullopt at clean end-of-log. Throws
  /// EventLogError on a torn frame, CRC mismatch, unknown type or
  /// malformed payload.
  [[nodiscard]] std::optional<EventRecord> next();

  /// Byte offset the next frame starts at.
  [[nodiscard]] std::int64_t offset() const noexcept { return offset_; }

 private:
  std::ifstream in_;
  std::int64_t offset_ = 0;
  obs::Counter m_frames_;
  obs::Counter m_bytes_;
  obs::Counter m_crc_failures_;
  obs::Tracer* tracer_ = nullptr;
};

/// A fully parsed session log, records bucketed by type in arrival
/// order. Throws EventLogError when the first frame is not the
/// SessionMeta or the log carries more than one.
struct RecordedSession {
  SessionMeta meta;
  std::vector<PriceTickRecord> ticks;
  std::vector<WorkloadStepRecord> steps;
  std::vector<RoutingDecisionRecord> decisions;
  std::vector<StorageActionRecord> storage_actions;
};

[[nodiscard]] RecordedSession read_session(const std::string& path);

/// IEEE 802.3 CRC-32 (the log's frame checksum; exposed for tests).
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

// --- Record codec ---------------------------------------------------------
//
// The (type, payload) encoding of each record, shared with the network
// transport (src/net/): a record framed off a socket is byte-identical
// to the one the file log appends, so a server can append ingested
// frames verbatim and replay-equals-live holds for socket sessions.

/// The wire type tag of a record.
[[nodiscard]] RecordType record_type(const EventRecord& record);

/// Human-readable name of a wire type tag ("SessionMeta", ... or
/// "unknown") for diagnostics.
[[nodiscard]] const char* record_type_name(std::uint8_t type);

/// Encodes a record's payload (the bytes between the length prefix and
/// the CRC). Throws std::invalid_argument for a SessionMeta the codec
/// cannot round-trip exactly (non-registry router config, non-loggable
/// storage spec).
[[nodiscard]] std::vector<std::uint8_t> encode_record(const EventRecord& record);

/// Decodes one payload. Throws EventLogError naming `offset` (where the
/// frame started in its stream) on an unknown type or malformed payload.
[[nodiscard]] EventRecord decode_record(std::uint8_t type,
                                        const std::vector<std::uint8_t>& payload,
                                        std::int64_t offset);

}  // namespace cebis::service

#endif  // CEBIS_SERVICE_EVENT_LOG_H
