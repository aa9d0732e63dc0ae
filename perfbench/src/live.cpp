// The `live` workload: one in-process service::LiveEngine session over
// the 24-day trace, then service::replay_file on the log it wrote.
//
// End to end: steps_per_s (LiveEngine construction to finish(), median
// session), decision_p50_us / decision_p90_us (first tick of an
// interval to the return of the advance it unblocks, pooled over the
// timed sessions) and replay_steps_per_s (replay_file, median). Every
// session's finish() must equal its replay, bit for bit.
//
// Traced: ticks, advances and finish are timed inside the session; the
// log writer, reader, read_session/replay split, tick assembly, the
// storage observer and the batch floor are timed in separate passes
// over the recorded session.

#include <cstdio>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/router_registry.h"
#include "harness.h"
#include "market/hub.h"
#include "market/tick_assembler.h"
#include "service/replay.h"
#include "spans.h"
#include "storage/storage_controller.h"

namespace perfbench {

using namespace cebis;

core::ScenarioSpec live_spec(const service::LiveConfig& config) {
  core::ScenarioSpec spec;
  spec.router = config.router;
  spec.config = config.router_config;
  spec.energy = config.energy;
  spec.workload = core::WorkloadKind::kTrace24Day;
  spec.enforce_p95 = config.enforce_p95;
  spec.delay_hours = config.delay_hours;
  spec.market_interval_minutes = 60 / config.samples_per_hour;
  spec.storage = config.storage;
  return spec;
}

LiveSession drive_live(const core::Fixture& fixture, const LiveInputs& in,
                       const std::string& log_path, SpanLog* spans) {
  LiveSession out;
  out.latency_s.reserve(in.steps.size());
  service::EventLogWriter log(log_path);
  const std::size_t hubs = in.hubs.size();
  {
    SpanLog::Scope root = maybe_open(spans, "live.session");
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<service::LiveEngine> live;
    {
      const SpanLog::Scope span = maybe_open(spans, "service.open");
      live = std::make_unique<service::LiveEngine>(fixture, in.config, &log);
    }
    for (std::int64_t i = 0; i < in.intervals; ++i) {
      const Clock::time_point first_tick = Clock::now();
      const service::PriceTickRecord* tick =
          &in.ticks[static_cast<std::size_t>(i) * hubs];
      for (std::size_t h = 0; h < hubs; ++h, ++tick) {
        const SpanLog::Scope span =
            maybe_open(spans, "market.tick", live->steps_done());
        live->on_price_tick(tick->hub, tick->interval, tick->price);
      }
      bool advanced = false;
      while (!live->done() && live->needed_end() <= live->sealed_end()) {
        const std::int64_t k = live->steps_done();
        const SpanLog::Scope span = maybe_open(spans, "service.advance", k);
        live->advance(in.steps[static_cast<std::size_t>(k)].demand);
        advanced = true;
      }
      if (advanced) out.latency_s.push_back(seconds_since(first_tick));
    }
    {
      const SpanLog::Scope span = maybe_open(spans, "service.finish");
      out.result = live->finish();
    }
    out.wall_s = seconds_since(t0);
    root.close();
    live.reset();  // teardown is outside the timed window
  }
  log.close();
  out.log_bytes = log.bytes_written();
  out.log_frames = log.frames();
  return out;
}

namespace {

/// Times StorageController::on_step (the rest is forwarded as is).
class TimedStorage final : public core::StepObserver {
 public:
  TimedStorage(core::StepObserver& inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}
  void on_run_begin(const core::RunInfo& info,
                    std::span<const core::Cluster> clusters) override {
    inner_.on_run_begin(info, clusters);
  }
  void on_step(const core::StepView& view) override {
    const SpanLog::Scope span = maybe_open(spans_, "storage.on_step", view.step);
    inner_.on_step(view);
  }
  void on_run_end(core::RunResult& result) override { inner_.on_run_end(result); }

 private:
  core::StepObserver& inner_;
  SpanLog* spans_;
};

std::string diff_against(const core::RunResult& got,
                         const core::RunResult& reference, bool perturb) {
  if (!perturb) return service::diff_run_results(got, reference);
  core::RunResult perturbed = reference;
  perturbed.total_cost = Usd{perturbed.total_cost.value() + 1.0};
  return service::diff_run_results(got, perturbed);
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// The recorded log's records in arrival order (untimed input for the
/// writer pass).
std::vector<service::EventRecord> read_records(const std::string& path) {
  std::vector<service::EventRecord> records;
  service::EventLogReader reader(path);
  while (std::optional<service::EventRecord> r = reader.next()) {
    records.push_back(std::move(*r));
  }
  return records;
}

/// The per-layer passes over one recorded session (see the file head).
void trace_layers(const core::Fixture& fx, const LiveInputs& in,
                  const LiveSession& live, const std::string& log_path,
                  const Options& options, SpanLog& spans, Report& report,
                  LayerValues& layers) {
  const double steps = static_cast<double>(in.step_count());
  const std::string rewrite_path = log_path + ".rewrite";

  {  // EventLogWriter::write, frame by frame
    const std::vector<service::EventRecord> records = read_records(log_path);
    const SpanLog::Scope root = spans.open("live.log_rewrite");
    service::EventLogWriter writer(rewrite_path);
    for (const service::EventRecord& record : records) {
      const SpanLog::Scope span = spans.open("service.log_write");
      std::visit([&writer](const auto& r) { writer.write(r); }, record);
    }
    writer.close();
  }
  {  // EventLogReader::next, frame by frame
    const SpanLog::Scope root = spans.open("live.log_scan");
    service::EventLogReader reader(log_path);
    for (;;) {
      const SpanLog::Scope span = spans.open("service.log_read");
      if (!reader.next().has_value()) break;
    }
  }
  std::vector<double> read_ms;
  std::vector<double> replay_ms;
  for (int pass = 0; pass < 3; ++pass) {  // read_session, then replay
    const SpanLog::Scope root = spans.open("live.replay");
    service::RecordedSession session;
    {
      const SpanLog::Scope span = spans.open("service.read_session");
      const Clock::time_point t0 = Clock::now();
      session = service::read_session(log_path);
      read_ms.push_back(1e3 * seconds_since(t0));
    }
    core::RunResult replayed;
    {
      const SpanLog::Scope span = spans.open("service.replay_run");
      const Clock::time_point t0 = Clock::now();
      replayed = service::replay(fx, session);
      replay_ms.push_back(1e3 * seconds_since(t0));
    }
    const std::string diff =
        diff_against(replayed, live.result, options.perturb_reference);
    report.check(diff.empty(), "read_session + replay differs from live: " + diff);
  }

  // Tick assembly: the recorded ticks into a fresh TickAssembler.
  const Period priced{in.config.period.begin - in.config.delay_hours,
                      in.config.period.end};
  std::unique_ptr<market::TickAssembler> assembler;
  double assemble_ms = 0.0;
  {
    const SpanLog::Scope root = spans.open("market.assemble");
    const Clock::time_point t0 = Clock::now();
    assembler = std::make_unique<market::TickAssembler>(
        priced, in.config.samples_per_hour,
        market::HubRegistry::instance().size(), in.hubs);
    for (const service::PriceTickRecord& t : in.ticks) {
      assembler->add(t.hub, t.interval, t.price);
    }
    assemble_ms = 1e3 * seconds_since(t0);
  }

  // The storage observer on a plain engine session over the same inputs.
  {
    const core::ScenarioSpec spec = live_spec(in.config);
    const core::RouterEntry& entry = core::RouterRegistry::instance().at(spec.router);
    core::EngineConfig cfg;
    cfg.energy = spec.energy;
    cfg.delay_hours = spec.delay_hours;
    cfg.enforce_p95 = spec.enforce_p95 && !entry.forces_relaxed_p95;
    const core::SimulationEngine engine(fx.clusters, assembler->set(),
                                        fx.distances, cfg);
    service::PushWorkload workload(in.config.period, in.config.steps_per_hour,
                                   fx.trace.state_count());
    for (const service::WorkloadStepRecord& s : in.steps) workload.push(s.demand);
    const std::unique_ptr<core::Router> router = entry.make(fx, spec);
    storage::StorageController controller(*in.config.storage);
    TimedStorage timed(controller, &spans);
    core::StepObserver* observers[] = {&timed};

    const SpanLog::Scope root = spans.open("live.storage_session");
    core::SimulationEngine::Session session =
        engine.begin(workload, *router, observers);
    while (!session.done()) {
      const SpanLog::Scope span = spans.open("core.step", session.steps_done());
      session.step();
    }
    const core::RunResult result = session.finish();
    const std::string diff =
        diff_against(result, live.result, options.perturb_reference);
    report.check(diff.empty(),
                 "engine session with the storage observer differs from live: " +
                     diff);
  }

  // The batch floor: core::run_scenario of the same session.
  std::vector<double> batch_s;
  for (int pass = 0; pass < 3; ++pass) {
    const SpanLog::Scope root = spans.open("live.batch");
    const SpanLog::Scope span = spans.open("core.run_scenario");
    const Clock::time_point t0 = Clock::now();
    const core::RunResult batch = core::run_scenario(fx, live_spec(in.config));
    batch_s.push_back(seconds_since(t0));
    (void)batch;
  }
  const double batch_steps =
      static_cast<double>(core::scenario_period(fx, live_spec(in.config)).hours() *
                          in.config.steps_per_hour);

  layers.set("market.tick_us", 1e6 * mean(spans.self_times("market.tick")));
  const std::vector<double> advance = spans.durations("service.advance");
  layers.set("service.advance_p50_us", 1e6 * quantile(advance, 0.5));
  layers.set("service.advance_p90_us", 1e6 * quantile(advance, 0.9));
  layers.set("service.finish_ms", 1e3 * median(spans.durations("service.finish")));
  layers.set("service.log_write_us_per_frame",
             1e6 * mean(spans.self_times("service.log_write")));
  layers.set("service.log_bytes_per_step",
             static_cast<double>(live.log_bytes) / steps);
  layers.set("service.log_frames_per_step",
             static_cast<double>(live.log_frames) / steps);
  layers.set("service.log_read_us_per_frame",
             1e6 * mean(spans.self_times("service.log_read")));
  layers.set("service.read_session_ms", median(read_ms));
  layers.set("service.replay_run_ms", median(replay_ms));
  layers.set("market.assemble_ms", assemble_ms);
  layers.set("storage.on_step_us", 1e6 * mean(spans.self_times("storage.on_step")));
  layers.set("core.batch_step_us", 1e6 * median(batch_s) / batch_steps);

  for (const char* root : {"live.session", "live.log_rewrite", "live.log_scan",
                           "live.replay", "market.assemble",
                           "live.storage_session", "live.batch",
                           "market.fixture_make", "market.cover_5min"}) {
    spans.print_table(root);
  }
  std::remove(rewrite_path.c_str());
}

}  // namespace

void run_live(const Options& options, Report& report) {
  const bool traced = options.trace;
  SpanLog span_log("live");
  SpanLog* spans = traced ? &span_log : nullptr;

  const Setups setups = timed_setups(
      options.seed,
      [small = options.small](const core::Fixture& fx) {
        const service::LiveConfig cfg = live_config(fx, small);
        (void)fx.prices_covering(
            Period{cfg.period.begin - cfg.delay_hours, cfg.period.end},
            cfg.samples_per_hour);
      },
      spans, "market.cover_5min");
  const core::Fixture& fx = *setups.fixture;
  const LiveInputs in = make_live_inputs(fx, options.small);
  const std::int64_t steps = in.step_count();
  const std::string log_path = join_path(options.tmp_dir, "live_session.eventlog");
  std::printf("live: %lld steps, %zu hubs, %lld ticks per session\n",
              static_cast<long long>(steps), in.hubs.size(),
              static_cast<long long>(in.ticks.size()));

  // One session with its replay: the correctness gate of every pass.
  auto session_with_replay = [&](SpanLog* pass_spans, double* replay_s) {
    LiveSession s = drive_live(fx, in, log_path, pass_spans);
    const Clock::time_point t0 = Clock::now();
    const core::RunResult replayed = service::replay_file(fx, log_path);
    if (replay_s != nullptr) *replay_s = seconds_since(t0);
    const std::string diff =
        diff_against(replayed, s.result, options.perturb_reference);
    report.check(diff.empty(), "live finish() differs from its replay: " + diff);
    return s;
  };

  (void)session_with_replay(nullptr, nullptr);  // warm-up

  const double budget = traced ? options.seconds * 0.4 : options.seconds;
  std::vector<double> session_s;
  std::vector<double> replay_s;
  std::vector<double> p50_s;  // per session, over its 6,912 decisions
  std::vector<double> p90_s;
  const Clock::time_point loop0 = Clock::now();
  while (session_s.size() < 3 || seconds_since(loop0) < budget) {
    double replay = 0.0;
    const LiveSession s = session_with_replay(nullptr, &replay);
    session_s.push_back(s.wall_s);
    replay_s.push_back(replay);
    p50_s.push_back(quantile(s.latency_s, 0.5));
    p90_s.push_back(quantile(s.latency_s, 0.9));
  }
  describe("live sessions", session_s);
  describe("live replays", replay_s);
  describe("live decision p50 per session", p50_s, 1e6, "us");
  describe("live decision p90 per session", p90_s, 1e6, "us");

  // The batch floor, for the host-independent ratios.
  const core::ScenarioSpec spec = live_spec(in.config);
  const double batch_steps = static_cast<double>(
      core::scenario_period(fx, spec).hours() * in.config.steps_per_hour);
  const double batch_s =
      best_seconds(5, [&] { (void)core::run_scenario(fx, spec); });
  const double per_step_live = best(session_s) / static_cast<double>(steps);
  const double per_step_replay = best(replay_s) / static_cast<double>(steps);
  const double per_step_batch = batch_s / batch_steps;
  std::printf(
      "ratios: live/batch per step = %.3f, replay/batch per step = %.3f "
      "(batch %.3f us/step over %.0f steps)\n",
      per_step_live / per_step_batch, per_step_replay / per_step_batch,
      1e6 * per_step_batch, batch_steps);

  if (!traced) {
    std::remove(log_path.c_str());
    report.metric("steps_per_s", static_cast<double>(steps) / best(session_s),
                  "steps/s");
    report.metric("decision_p50_us", 1e6 * best(p50_s), "us");
    report.metric("decision_p90_us", 1e6 * best(p90_s), "us");
    report.metric("replay_steps_per_s",
                  static_cast<double>(steps) / best(replay_s), "steps/s");
    report.metric("setup_s", median(setups.total_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("ok_frac", report.ok_frac(), "ratio");
    return;
  }

  std::vector<double> traced_s;
  LiveSession last;
  for (int pass = 0; pass < 2; ++pass) {
    span_log.set_pass(pass);
    last = session_with_replay(spans, nullptr);
    traced_s.push_back(last.wall_s);
  }
  LayerValues layers;
  trace_layers(fx, in, last, log_path, options, span_log, report, layers);
  layers.set("market.fixture_make_s", median(setups.make_s));
  layers.set("market.cover_5min_s", median(setups.cover_s));
  layers.set("obs.trace_overhead_frac", best(traced_s) / best(session_s) - 1.0);
  const std::string path = join_path(options.out_dir, "trace_live.json");
  span_log.write_json(path);
  std::printf("spans: %zu written to %s\n", span_log.size(), path.c_str());
  std::remove(log_path.c_str());
  layers.emit(report, "live");
}

}  // namespace perfbench
