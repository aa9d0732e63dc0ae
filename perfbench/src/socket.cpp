// The `socket` workload: the live session fed over loopback TCP into a
// net::Server (pre-built fixture, other options at their defaults) with
// two subscribers, in two phases per pass, each on a fresh server:
//
//   realtime  a feeder on the public wire API sends one interval at a
//             time and waits until subscriber 1 has read that step's
//             RoutingDecision (one interval in flight). Latency runs
//             from just before the step's frame (the interval's last
//             input) is written to subscriber 1 reading the decision.
//   catch-up  net::FeedClient::run streams the whole session as a
//             backlog; steps_per_s is steps / its wall time.
//
// Server start, subscriber connect and server stop are outside every
// timed window. Each session must end with no protocol error, a
// decision read for every realtime step, and a server log whose replay
// equals the in-process reference session; that replay_file call is
// timed for replay_steps_per_s.

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "harness.h"
#include "net/feed_client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/replay.h"
#include "spans.h"

namespace perfbench {

using namespace cebis;

namespace {

constexpr const char* kHost = "127.0.0.1";
constexpr int kIoMs = 10'000;
constexpr int kSubscribers = 2;
/// Grace after both subscribers sent their stream header, for the
/// server's acceptor to register them (the server exposes no
/// subscriber count); spent in set-up, never in a timed window.
constexpr int kRegisterMs = 25;

constexpr auto kDecision =
    static_cast<std::uint8_t>(service::RecordType::kRoutingDecision);
constexpr auto kFeedEnd = static_cast<std::uint8_t>(net::NetFrameType::kFeedEnd);
constexpr auto kIngestStatus =
    static_cast<std::uint8_t>(net::NetFrameType::kIngestStatus);

/// A pre-encoded feed frame; `step` >= 0 marks a WorkloadStep (the
/// last input frame of its interval).
struct EncodedFrame {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
  std::int64_t step = -1;
};

std::vector<EncodedFrame> encode_feed(const LiveInputs& in) {
  std::vector<EncodedFrame> frames;
  const service::EventRecord meta{in.meta};
  frames.push_back({static_cast<std::uint8_t>(service::record_type(meta)),
                    service::encode_record(meta), -1});
  for (const service::EventRecord& r :
       net::interleave_feed(in.meta, in.ticks, in.steps)) {
    const auto* step = std::get_if<service::WorkloadStepRecord>(&r);
    frames.push_back({static_cast<std::uint8_t>(service::record_type(r)),
                      service::encode_record(r), step != nullptr ? step->step : -1});
  }
  return frames;
}

/// Where subscriber 1 posts the decisions it read (for the realtime
/// feeder's one-in-flight wait and the latency samples).
struct DecisionBoard {
  explicit DecisionBoard(std::size_t steps) : read_at(steps) {}
  std::mutex mutex;
  std::condition_variable cv;
  std::int64_t last_step = -1;       // guarded by mutex
  bool closed = false;               // guarded by mutex
  std::vector<Clock::time_point> read_at;  // written before last_step moves
};

struct SubscriberStats {
  std::int64_t frames = 0;
  std::int64_t decisions = 0;
  std::string error;
};

void subscribe(std::uint16_t port, std::atomic<int>& ready,
               SubscriberStats& stats, DecisionBoard* board) {
  try {
    net::Socket sock = net::connect_to(kHost, port, kIoMs);
    net::write_stream_header(sock, net::Channel::kSubscribe, kIoMs);
    ready.fetch_add(1);
    net::FrameReader reader(sock);
    while (std::optional<net::Frame> frame = reader.next(kIoMs)) {
      const Clock::time_point read_at = Clock::now();
      ++stats.frames;
      if (frame->type == kFeedEnd) break;
      if (frame->type != kDecision) continue;
      ++stats.decisions;
      if (board == nullptr) continue;
      const service::EventRecord record =
          service::decode_record(frame->type, frame->payload, reader.offset());
      const std::int64_t step =
          std::get<service::RoutingDecisionRecord>(record).step;
      const std::lock_guard<std::mutex> lock(board->mutex);
      if (step >= 0 && static_cast<std::size_t>(step) < board->read_at.size()) {
        board->read_at[static_cast<std::size_t>(step)] = read_at;
      }
      board->last_step = step;
      board->cv.notify_all();
    }
  } catch (const std::exception& e) {
    stats.error = e.what();
  }
  if (board != nullptr) {
    const std::lock_guard<std::mutex> lock(board->mutex);
    board->closed = true;
    board->cv.notify_all();
  }
}

/// One served session: a fresh server with its serve() thread and two
/// subscriber threads. start() and finish() bracket the session and
/// are never inside a timed window.
class ServedSession {
 public:
  ServedSession(const core::Fixture& fixture, std::string log_path,
                DecisionBoard* board, SpanLog* spans)
      : fixture_(fixture), log_path_(std::move(log_path)), board_(board),
        spans_(spans) {}
  ~ServedSession() { finish(false); }

  ServedSession(const ServedSession&) = delete;
  ServedSession& operator=(const ServedSession&) = delete;

  void start() {
    net::ServerOptions options;
    options.log_path = log_path_;
    options.fixture = &fixture_;
    {
      const SpanLog::Scope span = maybe_open(spans_, "net.server_start");
      server_ = std::make_unique<net::Server>(options);
    }
    serving_ = std::thread([this] { report_ = server_->serve(); });
    const std::uint16_t port = server_->subscribe_port();
    for (int i = 0; i < kSubscribers; ++i) {
      subscribers_.emplace_back(subscribe, port, std::ref(ready_),
                                std::ref(stats_[i]), i == 0 ? board_ : nullptr);
    }
    const Clock::time_point t0 = Clock::now();
    while (ready_.load() < kSubscribers && seconds_since(t0) < kIoMs / 1e3) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kRegisterMs));
  }

  /// Joins everything. `completed` = the feed ended normally, so serve()
  /// returns on its own; otherwise the server is stopped first.
  void finish(bool completed) {
    if (!server_) return;
    if (!completed) server_->stop();
    if (serving_.joinable()) serving_.join();
    for (std::thread& t : subscribers_) t.join();
    subscribers_.clear();
    const SpanLog::Scope span = maybe_open(spans_, "net.server_stop");
    server_->stop();
    server_.reset();
  }

  [[nodiscard]] std::uint16_t ingest_port() const { return server_->ingest_port(); }
  [[nodiscard]] const net::ServerReport& report() const { return report_; }
  [[nodiscard]] const SubscriberStats& stats(int i) const { return stats_[i]; }
  [[nodiscard]] const std::string& log_path() const { return log_path_; }

 private:
  const core::Fixture& fixture_;
  std::string log_path_;
  DecisionBoard* board_;
  SpanLog* spans_;
  std::unique_ptr<net::Server> server_;
  net::ServerReport report_;
  std::thread serving_;
  std::atomic<int> ready_{0};
  SubscriberStats stats_[kSubscribers];
  std::vector<std::thread> subscribers_;
};

/// The realtime feeder (on the calling thread). Returns "" on success.
std::string feed_realtime(std::uint16_t port, const std::vector<EncodedFrame>& feed,
                          DecisionBoard& board,
                          std::vector<Clock::time_point>& sent_at,
                          SpanLog* spans) {
  net::Socket sock = net::connect_to(kHost, port, kIoMs);
  net::write_stream_header(sock, net::Channel::kIngest, kIoMs);
  net::FrameReader reader(sock);
  const std::optional<net::Frame> status = reader.next(kIoMs);
  if (!status || status->type != kIngestStatus) return "no opening IngestStatus";
  std::int64_t current = -1;
  for (const EncodedFrame& f : feed) {
    if (f.step >= 0) {
      current = f.step;
      sent_at[static_cast<std::size_t>(f.step)] = Clock::now();
    }
    {
      const SpanLog::Scope span = maybe_open(spans, "net.frame_write", current);
      net::write_frame(sock, f.type, f.payload, kIoMs);
    }
    if (f.step < 0) continue;
    std::unique_lock<std::mutex> lock(board.mutex);
    if (!board.cv.wait_for(lock, std::chrono::milliseconds(kIoMs), [&] {
          return board.last_step >= f.step || board.closed;
        }) ||
        board.last_step < f.step) {
      return "subscriber 1 never read the decision of step " +
             std::to_string(f.step);
    }
  }
  net::write_frame(sock, kFeedEnd, {}, kIoMs);
  const std::optional<net::Frame> ack = reader.next(kIoMs);
  if (!ack || ack->type != kIngestStatus) return "no FeedEnd acknowledgement";
  if (!net::decode_ingest_status(ack->payload, 0).complete) {
    return "FeedEnd acknowledged an incomplete session";
  }
  return "";
}

struct PhaseResult {
  double wall_s = 0.0;
  double replay_s = 0.0;                  // replay_file of the server log
  std::vector<double> latency_s;          // realtime only
  std::int64_t dropped_frames = 0;        // server report
  std::int64_t protocol_errors = 0;
  std::int64_t sub1_frames = 0;
  int feed_connections = 0;               // catch-up only
};

/// Checks a finished session: no protocol error, a result equal to the
/// reference, and a log whose replay equals it too. Returns the wall
/// seconds of replay_file on the server's log (0 when not replayed).
double check_session(Report& report, const core::Fixture& fx,
                     const ServedSession& session,
                     const core::RunResult& reference, const std::string& what) {
  double replay_s = 0.0;
  const net::ServerReport& r = session.report();
  std::string problem;
  if (r.protocol_errors != 0) {
    problem = std::to_string(r.protocol_errors) + " protocol error(s)";
    for (const std::string& e : r.events) problem += "; " + e;
  } else if (!r.result.has_value()) {
    problem = "the server finished no session";
  } else {
    const Clock::time_point t0 = Clock::now();
    const core::RunResult replayed = service::replay_file(fx, session.log_path());
    replay_s = seconds_since(t0);
    problem = service::diff_run_results(*r.result, reference);
    if (problem.empty()) {
      problem = service::diff_run_results(replayed, reference);
      if (!problem.empty()) problem = "server log replay: " + problem;
    }
  }
  report.check(problem.empty(), what + ": " + problem);
  return replay_s;
}

PhaseResult run_realtime(const core::Fixture& fx, const LiveInputs& in,
                         const std::vector<EncodedFrame>& feed,
                         const std::string& log_path,
                         const core::RunResult& reference, Report& report,
                         SpanLog* spans) {
  const std::size_t steps = in.steps.size();
  DecisionBoard board(steps);
  std::vector<Clock::time_point> sent_at(steps);
  ServedSession session(fx, log_path, &board, spans);
  session.start();
  PhaseResult out;
  std::string error;
  {
    const SpanLog::Scope root = maybe_open(spans, "socket.realtime");
    const Clock::time_point t0 = Clock::now();
    try {
      error = feed_realtime(session.ingest_port(), feed, board, sent_at, spans);
    } catch (const std::exception& e) {
      error = e.what();
    }
    out.wall_s = seconds_since(t0);
  }
  session.finish(error.empty());
  const SubscriberStats& sub1 = session.stats(0);
  if (error.empty() &&
      sub1.decisions != static_cast<std::int64_t>(steps)) {
    error = "subscriber 1 read " + std::to_string(sub1.decisions) + " of " +
            std::to_string(steps) + " decisions " + sub1.error;
  }
  report.check(error.empty(), "realtime feed: " + error);
  out.replay_s = check_session(report, fx, session, reference, "realtime session");
  if (error.empty()) {
    out.latency_s.reserve(steps);
    for (std::size_t k = 0; k < steps; ++k) {
      out.latency_s.push_back(seconds_between(sent_at[k], board.read_at[k]));
    }
  }
  out.protocol_errors = session.report().protocol_errors;
  out.dropped_frames = session.report().subscriber_dropped_frames;
  out.sub1_frames = sub1.frames;
  return out;
}

PhaseResult run_catchup(const core::Fixture& fx, const LiveInputs& in,
                        const std::string& log_path,
                        const core::RunResult& reference, Report& report,
                        SpanLog* spans) {
  ServedSession session(fx, log_path, nullptr, spans);
  session.start();
  PhaseResult out;
  std::string error;
  {
    const SpanLog::Scope root = maybe_open(spans, "socket.catchup");
    net::FeedClientOptions client_options;
    client_options.port = session.ingest_port();
    net::FeedClient client(client_options);
    const SpanLog::Scope span = maybe_open(spans, "net.feed_run");
    const Clock::time_point t0 = Clock::now();
    try {
      const net::FeedReport sent = client.run(in.meta, in.ticks, in.steps);
      out.feed_connections = sent.connections;
    } catch (const std::exception& e) {
      error = e.what();
    }
    out.wall_s = seconds_since(t0);
  }
  session.finish(error.empty());
  report.check(error.empty(), "catch-up feed: " + error);
  out.replay_s = check_session(report, fx, session, reference, "catch-up session");
  out.protocol_errors = session.report().protocol_errors;
  out.dropped_frames = session.report().subscriber_dropped_frames;
  return out;
}

}  // namespace

void run_socket(const Options& options, Report& report) {
  const bool traced = options.trace;
  SpanLog span_log("socket");
  SpanLog* spans = traced ? &span_log : nullptr;
  const std::string server_log = join_path(options.tmp_dir, "socket_server.eventlog");
  const std::string local_log = join_path(options.tmp_dir, "socket_local.eventlog");

  // --- set-up: fixture + 5-minute prices + server start + subscribers ------
  const Setups setups = timed_setups(
      options.seed,
      [small = options.small](const core::Fixture& fx) {
        const service::LiveConfig cfg = live_config(fx, small);
        (void)fx.prices_covering(
            Period{cfg.period.begin - cfg.delay_hours, cfg.period.end},
            cfg.samples_per_hour);
      },
      spans, "market.cover_5min",
      [&server_log](const core::Fixture& fx) {
        ServedSession idle(fx, server_log, nullptr, nullptr);
        const Clock::time_point t0 = Clock::now();
        idle.start();
        const double start_s = seconds_since(t0);
        idle.finish(false);  // teardown is not set-up time
        return start_s;
      });
  const core::Fixture& fx = *setups.fixture;
  const LiveInputs in = make_live_inputs(fx, options.small);
  const std::vector<EncodedFrame> feed = encode_feed(in);
  const double steps = static_cast<double>(in.step_count());
  std::printf("socket: %lld steps, %zu frames per realtime session, %d subscribers\n",
              static_cast<long long>(in.step_count()), feed.size(), kSubscribers);

  // --- untimed reference: in-process sessions (also the socket/live base) --
  std::vector<double> inproc_s;
  core::RunResult reference;
  for (int i = 0; i < 3; ++i) {
    LiveSession s = drive_live(fx, in, local_log, nullptr);
    inproc_s.push_back(s.wall_s);
    if (i == 0) {
      reference = std::move(s.result);
    } else {
      const std::string diff = service::diff_run_results(s.result, reference);
      report.check(diff.empty(), "in-process sessions disagree: " + diff);
    }
  }
  std::remove(local_log.c_str());
  if (options.perturb_reference) {
    reference.total_cost = Usd{reference.total_cost.value() + 1.0};
  }

  // --- warm-up, then timed passes ------------------------------------------
  (void)run_realtime(fx, in, feed, server_log, reference, report, nullptr);
  (void)run_catchup(fx, in, server_log, reference, report, nullptr);

  const double budget = traced ? options.seconds * 0.4 : options.seconds;
  std::vector<double> realtime_s;
  std::vector<double> catchup_s;
  std::vector<double> p50_s;  // per realtime session, over its decisions
  std::vector<double> p90_s;
  std::vector<double> replay_s;
  std::vector<double> dropped;
  std::int64_t protocol_errors = 0;
  std::vector<double> connections;
  const Clock::time_point loop0 = Clock::now();
  while (catchup_s.size() < 3 || seconds_since(loop0) < budget) {
    const PhaseResult rt =
        run_realtime(fx, in, feed, server_log, reference, report, nullptr);
    realtime_s.push_back(rt.wall_s);
    if (!rt.latency_s.empty()) {
      p50_s.push_back(quantile(rt.latency_s, 0.5));
      p90_s.push_back(quantile(rt.latency_s, 0.9));
    }
    const PhaseResult cu = run_catchup(fx, in, server_log, reference, report, nullptr);
    catchup_s.push_back(cu.wall_s);
    for (const double s : {rt.replay_s, cu.replay_s}) {
      if (s > 0.0) replay_s.push_back(s);
    }
    dropped.push_back(static_cast<double>(cu.dropped_frames));
    connections.push_back(cu.feed_connections);
    protocol_errors += rt.protocol_errors + cu.protocol_errors;
  }
  describe("socket catch-up sessions", catchup_s);
  describe("socket realtime sessions", realtime_s);
  describe("socket replays", replay_s);
  describe("socket decision p50 per realtime session", p50_s, 1e6, "us");
  describe("socket decision p90 per realtime session", p90_s, 1e6, "us");
  std::printf(
      "ratios: socket catch-up / in-process live per step = %.3f, realtime / "
      "in-process = %.3f (in-process %.4f s per session)\n",
      best(catchup_s) / best(inproc_s), best(realtime_s) / best(inproc_s),
      best(inproc_s));

  if (!traced) {
    std::remove(server_log.c_str());
    report.metric("steps_per_s", steps / best(catchup_s), "steps/s");
    report.metric("decision_p50_us", 1e6 * best(p50_s), "us");
    report.metric("decision_p90_us", 1e6 * best(p90_s), "us");
    report.metric("replay_steps_per_s", steps / best(replay_s), "steps/s");
    report.metric("setup_s", median(setups.total_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("ok_frac", report.ok_frac(), "ratio");
    return;
  }

  // --- traced pass ----------------------------------------------------------
  span_log.set_pass(0);
  const PhaseResult rt = run_realtime(fx, in, feed, server_log, reference, report, spans);
  const PhaseResult cu = run_catchup(fx, in, server_log, reference, report, spans);
  std::remove(server_log.c_str());
  protocol_errors += rt.protocol_errors + cu.protocol_errors;
  dropped.push_back(static_cast<double>(cu.dropped_frames));
  connections.push_back(cu.feed_connections);

  double write_sum = 0.0;
  const std::vector<double> writes = span_log.self_times("net.frame_write");
  for (const double v : writes) write_sum += v;
  LayerValues layers;
  layers.set("net.server_start_ms",
             1e3 * median(span_log.durations("net.server_start")));
  layers.set("net.server_stop_ms", 1e3 * median(span_log.durations("net.server_stop")));
  layers.set("net.frame_write_us",
             writes.empty() ? 0.0 : 1e6 * write_sum / static_cast<double>(writes.size()));
  layers.set("net.frames_per_step", static_cast<double>(rt.sub1_frames) / steps);
  layers.set("net.dropped_frames_per_step", median(dropped) / steps);
  layers.set("net.protocol_errors", static_cast<double>(protocol_errors));
  layers.set("net.feed_connections", median(connections));
  layers.set("market.fixture_make_s", median(setups.make_s));
  layers.set("market.cover_5min_s", median(setups.cover_s));
  layers.set("obs.trace_overhead_frac", rt.wall_s / best(realtime_s) - 1.0);

  for (const char* root : {"socket.realtime", "socket.catchup", "net.server_start",
                           "net.server_stop", "market.fixture_make",
                           "market.cover_5min"}) {
    span_log.print_table(root);
  }
  const std::string path = join_path(options.out_dir, "trace_socket.json");
  span_log.write_json(path);
  std::printf("spans: %zu written to %s\n", span_log.size(), path.c_str());
  layers.emit(report, "socket");
}

}  // namespace perfbench
