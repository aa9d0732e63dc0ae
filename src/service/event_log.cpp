#include "service/event_log.h"

#include <array>
#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "service/codec.h"

namespace cebis::service {

core::ScenarioSpec spec_of(const SessionMeta& meta) {
  if (meta.samples_per_hour < 1 || !divides_hour(meta.samples_per_hour)) {
    throw std::invalid_argument("SessionMeta: samples_per_hour must divide 60");
  }
  core::ScenarioSpec spec;
  spec.router = meta.router;
  spec.config = meta.router_config;
  spec.energy = meta.energy;
  spec.enforce_p95 = meta.enforce_p95;
  spec.delay_hours = meta.delay_hours;
  spec.delay_steps = meta.delay_steps;
  spec.market_interval_minutes = 60 / meta.samples_per_hour;
  spec.storage = meta.storage;
  return spec;
}

namespace {

using codec::Parser;
using codec::put;
using codec::put_doubles;
using codec::put_f64;
using codec::put_str;

enum : std::uint8_t {
  kCfgMonostate = 0,
  kCfgPriceAware = 1,
  kCfgJoint = 2,
};

std::vector<std::uint8_t> encode(const SessionMeta& meta) {
  if (meta.storage) {
    // The log carries StorageSpec's declarative core only; reject what
    // it cannot round-trip exactly.
    if (!meta.storage->per_cluster.empty()) {
      throw std::invalid_argument(
          "EventLogWriter: per-cluster battery overrides are not loggable");
    }
    if (!std::holds_alternative<std::monostate>(meta.storage->policy_config)) {
      throw std::invalid_argument(
          "EventLogWriter: non-default policy configs are not loggable");
    }
  }
  std::vector<std::uint8_t> out;
  put(out, meta.seed);
  put_str(out, meta.router);
  if (const auto* pa = std::get_if<core::PriceAwareConfig>(&meta.router_config)) {
    put(out, static_cast<std::uint8_t>(kCfgPriceAware));
    put_f64(out, pa->distance_threshold.value());
    put_f64(out, pa->price_threshold.value());
    put_f64(out, pa->nearby_slack.value());
  } else if (const auto* jo =
                 std::get_if<core::JointObjectiveConfig>(&meta.router_config)) {
    put(out, static_cast<std::uint8_t>(kCfgJoint));
    put_f64(out, jo->lambda_usd_per_mwh_km);
    put_f64(out, jo->free_km.value());
  } else {
    put(out, static_cast<std::uint8_t>(kCfgMonostate));
  }
  put(out, static_cast<std::int64_t>(meta.period.begin));
  put(out, static_cast<std::int64_t>(meta.period.end));
  put(out, static_cast<std::int32_t>(meta.steps_per_hour));
  put(out, static_cast<std::int32_t>(meta.samples_per_hour));
  put(out, static_cast<std::int32_t>(meta.delay_hours));
  put(out, static_cast<std::int32_t>(meta.delay_steps));
  put(out, static_cast<std::uint8_t>(meta.enforce_p95 ? 1 : 0));
  put(out, meta.n_states);
  put(out, meta.n_clusters);
  put_f64(out, meta.energy.peak_watts);
  put_f64(out, meta.energy.idle_fraction);
  put_f64(out, meta.energy.pue);
  put_f64(out, meta.energy.exponent_r);
  put_f64(out, meta.energy.epsilon_watts);
  put(out, static_cast<std::uint8_t>(meta.energy.cooling_tracks_load ? 1 : 0));
  put(out, static_cast<std::uint8_t>(meta.record_hourly_energy ? 1 : 0));
  put(out, static_cast<std::uint8_t>(meta.storage ? 1 : 0));
  if (meta.storage) {
    const core::StorageSpec& s = *meta.storage;
    put_f64(out, s.battery.capacity.value());
    put_f64(out, s.battery.max_charge.value());
    put_f64(out, s.battery.max_discharge.value());
    put_f64(out, s.battery.round_trip_efficiency);
    put_f64(out, s.battery.initial_soc_fraction);
    put_str(out, s.policy);
    put(out, static_cast<std::uint8_t>(s.cap_charge_at_peak ? 1 : 0));
    put(out, static_cast<std::uint8_t>(s.tariff.index_to_wholesale ? 1 : 0));
    put_f64(out, s.tariff.energy_adder.value());
    put_f64(out, s.tariff.demand_usd_per_kw_month.value());
    put_f64(out, s.tariff.demand_percentile);
  }
  return out;
}

SessionMeta decode_meta(Parser& p) {
  SessionMeta meta;
  meta.seed = p.get<std::uint64_t>();
  meta.router = p.str();
  switch (p.get<std::uint8_t>()) {
    case kCfgMonostate:
      meta.router_config = std::monostate{};
      break;
    case kCfgPriceAware: {
      core::PriceAwareConfig cfg;
      cfg.distance_threshold = Km{p.f64()};
      cfg.price_threshold = UsdPerMwh{p.f64()};
      cfg.nearby_slack = Km{p.f64()};
      meta.router_config = cfg;
      break;
    }
    case kCfgJoint: {
      core::JointObjectiveConfig cfg;
      cfg.lambda_usd_per_mwh_km = p.f64();
      cfg.free_km = Km{p.f64()};
      meta.router_config = cfg;
      break;
    }
    default:
      throw std::invalid_argument("unknown router config tag");
  }
  meta.period.begin = p.get<std::int64_t>();
  meta.period.end = p.get<std::int64_t>();
  meta.steps_per_hour = p.get<std::int32_t>();
  meta.samples_per_hour = p.get<std::int32_t>();
  meta.delay_hours = p.get<std::int32_t>();
  meta.delay_steps = p.get<std::int32_t>();
  meta.enforce_p95 = p.boolean();
  meta.n_states = p.get<std::uint32_t>();
  meta.n_clusters = p.get<std::uint32_t>();
  meta.energy.peak_watts = p.f64();
  meta.energy.idle_fraction = p.f64();
  meta.energy.pue = p.f64();
  meta.energy.exponent_r = p.f64();
  meta.energy.epsilon_watts = p.f64();
  meta.energy.cooling_tracks_load = p.boolean();
  meta.record_hourly_energy = p.boolean();
  if (p.boolean()) {
    core::StorageSpec s;
    s.battery.capacity = MegawattHours{p.f64()};
    s.battery.max_charge = Watts{p.f64()};
    s.battery.max_discharge = Watts{p.f64()};
    s.battery.round_trip_efficiency = p.f64();
    s.battery.initial_soc_fraction = p.f64();
    s.policy = p.str();
    s.cap_charge_at_peak = p.boolean();
    s.tariff.index_to_wholesale = p.boolean();
    s.tariff.energy_adder = UsdPerMwh{p.f64()};
    s.tariff.demand_usd_per_kw_month = Usd{p.f64()};
    s.tariff.demand_percentile = p.f64();
    meta.storage = std::move(s);
  }
  return meta;
}

constexpr std::size_t kHeaderSize = sizeof(kEventLogMagic) + 2 * sizeof(std::uint32_t);

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  // IEEE 802.3 (reflected polynomial 0xEDB88320), table-driven.
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- record codec -----------------------------------------------------------

RecordType record_type(const EventRecord& record) {
  struct Visitor {
    RecordType operator()(const SessionMeta&) const {
      return RecordType::kSessionMeta;
    }
    RecordType operator()(const PriceTickRecord&) const {
      return RecordType::kPriceTick;
    }
    RecordType operator()(const WorkloadStepRecord&) const {
      return RecordType::kWorkloadStep;
    }
    RecordType operator()(const RoutingDecisionRecord&) const {
      return RecordType::kRoutingDecision;
    }
    RecordType operator()(const StorageActionRecord&) const {
      return RecordType::kStorageAction;
    }
  };
  return std::visit(Visitor{}, record);
}

const char* record_type_name(std::uint8_t type) {
  switch (static_cast<RecordType>(type)) {
    case RecordType::kSessionMeta: return "SessionMeta";
    case RecordType::kPriceTick: return "PriceTick";
    case RecordType::kWorkloadStep: return "WorkloadStep";
    case RecordType::kRoutingDecision: return "RoutingDecision";
    case RecordType::kStorageAction: return "StorageAction";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_record(const EventRecord& record) {
  struct Visitor {
    std::vector<std::uint8_t> operator()(const SessionMeta& meta) const {
      return encode(meta);
    }
    std::vector<std::uint8_t> operator()(const PriceTickRecord& tick) const {
      std::vector<std::uint8_t> payload;
      put(payload, static_cast<std::int32_t>(tick.hub.value()));
      put(payload, tick.interval);
      put_f64(payload, tick.price);
      return payload;
    }
    std::vector<std::uint8_t> operator()(const WorkloadStepRecord& step) const {
      std::vector<std::uint8_t> payload;
      put(payload, step.step);
      put_doubles(payload, step.demand);
      return payload;
    }
    std::vector<std::uint8_t> operator()(
        const RoutingDecisionRecord& decision) const {
      std::vector<std::uint8_t> payload;
      put(payload, decision.step);
      put_doubles(payload, decision.cluster_load);
      return payload;
    }
    std::vector<std::uint8_t> operator()(const StorageActionRecord& action) const {
      std::vector<std::uint8_t> payload;
      put(payload, action.step);
      put_doubles(payload, action.soc_delta_mwh);
      return payload;
    }
  };
  return std::visit(Visitor{}, record);
}

EventRecord decode_record(std::uint8_t type,
                          const std::vector<std::uint8_t>& payload,
                          std::int64_t offset) {
  Parser p(payload, offset);
  switch (static_cast<RecordType>(type)) {
    case RecordType::kSessionMeta: {
      SessionMeta meta;
      try {
        meta = decode_meta(p);
      } catch (const std::invalid_argument& e) {
        throw EventLogError(std::string("malformed SessionMeta: ") + e.what(),
                            offset);
      }
      p.done();
      return EventRecord{std::move(meta)};
    }
    case RecordType::kPriceTick: {
      PriceTickRecord tick;
      tick.hub = HubId{p.get<std::int32_t>()};
      tick.interval = p.get<std::int64_t>();
      tick.price = p.f64();
      p.done();
      return EventRecord{tick};
    }
    case RecordType::kWorkloadStep: {
      WorkloadStepRecord step;
      step.step = p.get<std::int64_t>();
      step.demand = p.doubles();
      p.done();
      return EventRecord{std::move(step)};
    }
    case RecordType::kRoutingDecision: {
      RoutingDecisionRecord decision;
      decision.step = p.get<std::int64_t>();
      decision.cluster_load = p.doubles();
      p.done();
      return EventRecord{std::move(decision)};
    }
    case RecordType::kStorageAction: {
      StorageActionRecord action;
      action.step = p.get<std::int64_t>();
      action.soc_delta_mwh = p.doubles();
      p.done();
      return EventRecord{std::move(action)};
    }
  }
  throw EventLogError("unknown record type " + std::to_string(type), offset);
}

// --- writer -----------------------------------------------------------------

EventLogWriter::EventLogWriter(const std::string& path, obs::Taps taps)
    : path_(path),
      out_(path, std::ios::binary | std::ios::trunc),
      tracer_(taps.tracer) {
  if (!out_) {
    throw std::runtime_error("EventLogWriter: cannot open " + path);
  }
  if (taps.metrics != nullptr) {
    m_frames_ = taps.metrics->counter("cebis_eventlog_frames_written_total",
                                      "Frames appended to the binary event log");
    m_bytes_ = taps.metrics->counter("cebis_eventlog_bytes_written_total",
                                     "Bytes appended to the binary event log "
                                     "(frames only, header excluded)");
  }
  out_.write(kEventLogMagic, sizeof(kEventLogMagic));
  const std::uint32_t version = kEventLogVersion;
  const std::uint32_t reserved = 0;
  out_.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out_.write(reinterpret_cast<const char*>(&reserved), sizeof(reserved));
  bytes_ = static_cast<std::int64_t>(kHeaderSize);
}

void EventLogWriter::frame(RecordType type,
                           const std::vector<std::uint8_t>& payload) {
  if (closed_) {
    throw std::logic_error("EventLogWriter: write after close");
  }
  const obs::Tracer::Span span =
      obs::maybe_span(tracer_, "eventlog/write", "eventlog");
  // CRC covers type + length + payload, so a frame whose header bytes
  // rot is as detectable as one whose payload does.
  std::vector<std::uint8_t> buf;
  buf.reserve(1 + sizeof(std::uint32_t) + payload.size());
  put(buf, static_cast<std::uint8_t>(type));
  put(buf, static_cast<std::uint32_t>(payload.size()));
  buf.insert(buf.end(), payload.begin(), payload.end());
  const std::uint32_t crc = crc32(buf.data(), buf.size());
  out_.write(reinterpret_cast<const char*>(buf.data()),
             static_cast<std::streamsize>(buf.size()));
  out_.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  if (!out_) {
    throw std::runtime_error("EventLogWriter: write failed for " + path_);
  }
  bytes_ += static_cast<std::int64_t>(buf.size() + sizeof(crc));
  ++frames_;
  m_frames_.add();
  m_bytes_.add(static_cast<double>(buf.size() + sizeof(crc)));
}

void EventLogWriter::write(const SessionMeta& meta) {
  frame(RecordType::kSessionMeta, encode(meta));
}

void EventLogWriter::write(const PriceTickRecord& tick) {
  frame(RecordType::kPriceTick, encode_record(EventRecord{tick}));
}

void EventLogWriter::write(const WorkloadStepRecord& step) {
  frame(RecordType::kWorkloadStep, encode_record(EventRecord{step}));
}

void EventLogWriter::write(const RoutingDecisionRecord& decision) {
  frame(RecordType::kRoutingDecision, encode_record(EventRecord{decision}));
}

void EventLogWriter::write(const StorageActionRecord& action) {
  frame(RecordType::kStorageAction, encode_record(EventRecord{action}));
}

void EventLogWriter::close() {
  if (closed_) return;
  out_.flush();
  if (!out_) {
    throw std::runtime_error("EventLogWriter: flush failed for " + path_);
  }
  out_.close();
  closed_ = true;
}

// --- reader -----------------------------------------------------------------

EventLogReader::EventLogReader(const std::string& path, obs::Taps taps)
    : in_(path, std::ios::binary), tracer_(taps.tracer) {
  if (!in_) {
    throw EventLogError("cannot open event log " + path, 0);
  }
  if (taps.metrics != nullptr) {
    m_frames_ = taps.metrics->counter("cebis_eventlog_frames_read_total",
                                      "Frames decoded from the binary event log");
    m_bytes_ = taps.metrics->counter("cebis_eventlog_bytes_read_total",
                                     "Bytes decoded from the binary event log "
                                     "(frames only, header excluded)");
    m_crc_failures_ =
        taps.metrics->counter("cebis_eventlog_crc_failures_total",
                              "Frames rejected for a checksum mismatch");
  }
  std::array<char, kHeaderSize> header{};
  in_.read(header.data(), header.size());
  if (in_.gcount() != static_cast<std::streamsize>(header.size())) {
    throw EventLogError("truncated header: file shorter than " +
                            std::to_string(kHeaderSize) + " bytes",
                        0);
  }
  if (std::memcmp(header.data(), kEventLogMagic, sizeof(kEventLogMagic)) != 0) {
    throw EventLogError("bad magic: not a cebis event log", 0);
  }
  std::uint32_t version = 0;
  std::memcpy(&version, header.data() + sizeof(kEventLogMagic), sizeof(version));
  if (version != kEventLogVersion) {
    throw EventLogError("unsupported event log version " +
                            std::to_string(version),
                        static_cast<std::int64_t>(sizeof(kEventLogMagic)));
  }
  offset_ = static_cast<std::int64_t>(kHeaderSize);
}

std::optional<EventRecord> EventLogReader::next() {
  const obs::Tracer::Span span =
      obs::maybe_span(tracer_, "eventlog/read", "eventlog");
  const std::int64_t frame_offset = offset_;
  std::uint8_t type = 0;
  in_.read(reinterpret_cast<char*>(&type), 1);
  if (in_.gcount() == 0) {
    return std::nullopt;  // clean end-of-log: EOF exactly on a frame boundary
  }
  std::uint32_t payload_len = 0;
  in_.read(reinterpret_cast<char*>(&payload_len), sizeof(payload_len));
  if (in_.gcount() != static_cast<std::streamsize>(sizeof(payload_len))) {
    throw EventLogError(
        std::string("torn frame: end of file inside the header of a ") +
            record_type_name(type) + " frame",
        frame_offset);
  }
  std::vector<std::uint8_t> buf(1 + sizeof(payload_len) + payload_len);
  buf[0] = type;
  std::memcpy(buf.data() + 1, &payload_len, sizeof(payload_len));
  in_.read(reinterpret_cast<char*>(buf.data() + 1 + sizeof(payload_len)),
           payload_len);
  if (in_.gcount() != static_cast<std::streamsize>(payload_len)) {
    throw EventLogError(
        std::string("torn frame: end of file inside the payload of a ") +
            record_type_name(type) + " frame",
        frame_offset);
  }
  std::uint32_t stored_crc = 0;
  in_.read(reinterpret_cast<char*>(&stored_crc), sizeof(stored_crc));
  if (in_.gcount() != static_cast<std::streamsize>(sizeof(stored_crc))) {
    throw EventLogError(
        std::string("torn frame: end of file before the checksum of a ") +
            record_type_name(type) + " frame",
        frame_offset);
  }
  const std::uint32_t computed = crc32(buf.data(), buf.size());
  if (computed != stored_crc) {
    m_crc_failures_.add();
    throw EventLogError(std::string("CRC mismatch in a ") +
                            record_type_name(type) + " frame",
                        frame_offset);
  }
  offset_ = frame_offset + static_cast<std::int64_t>(buf.size() + sizeof(stored_crc));
  m_frames_.add();
  m_bytes_.add(static_cast<double>(buf.size() + sizeof(stored_crc)));

  const std::vector<std::uint8_t> payload(buf.begin() + 1 + sizeof(payload_len),
                                          buf.end());
  return decode_record(type, payload, frame_offset);
}

RecordedSession read_session(const std::string& path) {
  EventLogReader reader(path);
  RecordedSession session;
  bool have_meta = false;
  while (auto record = reader.next()) {
    const std::int64_t frame_offset = reader.offset();
    std::visit(
        [&](auto&& r) {
          using T = std::decay_t<decltype(r)>;
          if constexpr (std::is_same_v<T, SessionMeta>) {
            if (have_meta) {
              throw EventLogError("duplicate SessionMeta frame", frame_offset);
            }
            session.meta = std::move(r);
            have_meta = true;
          } else {
            if (!have_meta) {
              throw EventLogError(
                  "event log does not start with a SessionMeta frame",
                  frame_offset);
            }
            if constexpr (std::is_same_v<T, PriceTickRecord>) {
              session.ticks.push_back(r);
            } else if constexpr (std::is_same_v<T, WorkloadStepRecord>) {
              session.steps.push_back(std::move(r));
            } else if constexpr (std::is_same_v<T, RoutingDecisionRecord>) {
              session.decisions.push_back(std::move(r));
            } else {
              session.storage_actions.push_back(std::move(r));
            }
          }
        },
        std::move(*record));
  }
  if (!have_meta) {
    throw EventLogError("event log carries no SessionMeta frame",
                        reader.offset());
  }
  return session;
}

}  // namespace cebis::service
