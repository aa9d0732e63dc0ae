// The observability layer: MetricsRegistry semantics (labels, kinds,
// per-thread shard merging, disabled/inert modes), the concurrent
// hammer the TSan leg runs, Tracer span JSON, Prometheus/JSON
// exposition, and the layer's defining invariant - results are
// byte-identical with metrics and tracing enabled, disabled or absent
// (the sweep determinism guard mirrors ScenarioApiTest's
// ParallelSweepMatchesSerialByteForByte with taps attached).
//
// ObsMetricsTest runs in the TSan CI leg (see .github/workflows/ci.yml)
// - keep its tests free of multi-minute sweeps.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/observers.h"
#include "io/metrics_export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/event_log.h"
#include "service/live_engine.h"
#include "stats/histogram.h"
#include "storage/battery.h"
#include "test_support.h"

namespace cebis {
namespace {

using obs::Labels;
using obs::MetricKind;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::Tracer;

// --- registry semantics -----------------------------------------------------

TEST(ObsMetricsTest, CounterGaugeHistogramRoundTrip) {
  MetricsRegistry reg;
  obs::Counter requests =
      reg.counter("requests_total", "Requests served", {{"route", "a"}});
  obs::Gauge depth = reg.gauge("queue_depth", "Live queue depth");
  const std::vector<double> bounds = {1.0, 2.0};
  obs::Histogram latency =
      reg.histogram("latency_seconds", "Request latency", bounds);

  requests.add();
  requests.add(2.5);
  depth.set(7.0);
  depth.set(3.0);  // last writer wins
  latency.observe(0.5);
  latency.observe(1.5);
  latency.observe(99.0);  // overflow -> +Inf bucket

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(reg.series_count(), 3u);
  EXPECT_DOUBLE_EQ(snap.value_or("requests_total", -1.0, {{"route", "a"}}),
                   3.5);
  EXPECT_DOUBLE_EQ(snap.value_or("queue_depth", -1.0), 3.0);

  const obs::MetricSample* hist = snap.find("latency_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->kind, MetricKind::kHistogram);
  ASSERT_EQ(hist->bucket_counts.size(), 3u);  // 2 bounds + the +Inf bucket
  EXPECT_DOUBLE_EQ(hist->bucket_counts[0], 1.0);
  EXPECT_DOUBLE_EQ(hist->bucket_counts[1], 1.0);
  EXPECT_DOUBLE_EQ(hist->bucket_counts[2], 1.0);
  EXPECT_DOUBLE_EQ(hist->sum, 101.0);
  EXPECT_DOUBLE_EQ(hist->count, 3.0);
}

TEST(ObsMetricsTest, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry reg;
  obs::Counter a = reg.counter("c", "h", {{"x", "1"}, {"y", "2"}});
  obs::Counter b = reg.counter("c", "h", {{"y", "2"}, {"x", "1"}});
  a.add();
  b.add();
  EXPECT_EQ(reg.series_count(), 1u);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.value_or("c", -1.0, {{"y", "2"}, {"x", "1"}}), 2.0);
}

TEST(ObsMetricsTest, KindAndBoundsConflictsThrow) {
  MetricsRegistry reg;
  (void)reg.counter("n", "h");
  EXPECT_THROW((void)reg.gauge("n", "h"), std::invalid_argument);
  const std::vector<double> b1 = {1.0};
  const std::vector<double> b2 = {2.0};
  (void)reg.histogram("h1", "h", b1);
  EXPECT_THROW((void)reg.histogram("h1", "h", b2), std::invalid_argument);
  // Same name + kind + bounds is the intended re-resolve path.
  (void)reg.histogram("h1", "h", b1);
  (void)reg.counter("n", "h");
}

TEST(ObsMetricsTest, DisabledRegistryAndDefaultHandlesAreInert) {
  MetricsRegistry off(/*enabled=*/false);
  obs::Counter c = off.counter("c", "h");
  obs::Gauge g = off.gauge("g", "h");
  const std::vector<double> bounds = {1.0};
  obs::Histogram h = off.histogram("h", "h", bounds);
  EXPECT_FALSE(c.live());
  EXPECT_FALSE(g.live());
  EXPECT_FALSE(h.live());
  c.add();
  g.set(1.0);
  h.observe(1.0);
  EXPECT_EQ(off.series_count(), 0u);
  EXPECT_TRUE(off.snapshot().samples.empty());

  obs::Counter none;  // the nullptr-registry path
  none.add();
  EXPECT_FALSE(none.live());
}

TEST(ObsMetricsTest, ResetZeroesButKeepsHandlesValid) {
  MetricsRegistry reg;
  obs::Counter c = reg.counter("c", "h");
  c.add(5.0);
  reg.reset();
  EXPECT_DOUBLE_EQ(reg.snapshot().value_or("c", -1.0), 0.0);
  c.add(2.0);
  EXPECT_DOUBLE_EQ(reg.snapshot().value_or("c", -1.0), 2.0);
}

TEST(ObsMetricsTest, LinearBoundsMatchStatsHistogramEdges) {
  // The obs histogram's buckets must reproduce stats::Histogram's bins
  // so dashboards and figure pipelines agree on bucket edges.
  const std::vector<double> bounds =
      MetricsRegistry::linear_bounds(0.0, 10.0, 0.5);
  const stats::Histogram ref(0.0, 10.0, 0.5);
  ASSERT_EQ(bounds.size(), ref.bin_count());
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], ref.bin_hi(i)) << i;
  }
}

TEST(ObsMetricsTest, ShardsMergeAcrossThreads) {
  // Each worker resolves its OWN handle (the intended discipline) and
  // bumps it; the snapshot must see the exact total.
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10'000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg] {
      obs::Counter c = reg.counter("work_total", "per-thread shard test");
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_DOUBLE_EQ(reg.snapshot().value_or("work_total", -1.0),
                   double(kThreads) * kAdds);
}

TEST(ObsMetricsTest, ConcurrentHammerIsRaceFree) {
  // The TSan target: writers hammer counters/gauges/histograms on their
  // own shards while a reader snapshots concurrently. Values are
  // asserted only after the join (mid-flight snapshots are
  // consistent-enough by contract, not exact).
  MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kIters = 5'000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, t] {
      obs::Counter c =
          reg.counter("hammer_total", "h", {{"w", std::to_string(t)}});
      obs::Gauge g = reg.gauge("hammer_gauge", "h");
      const std::vector<double> bounds = {0.5, 1.5};
      obs::Histogram h = reg.histogram("hammer_hist", "h", bounds);
      for (int i = 0; i < kIters; ++i) {
        c.add();
        g.set(double(i));
        h.observe(double(i % 3));
      }
    });
  }
  std::thread reader([&reg, &stop] {
    while (!stop.load()) {
      (void)reg.snapshot();
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();

  const MetricsSnapshot snap = reg.snapshot();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(
        snap.value_or("hammer_total", -1.0, {{"w", std::to_string(t)}}),
        double(kIters));
  }
  const obs::MetricSample* hist = snap.find("hammer_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->count, double(kThreads) * kIters);
}

// --- tracer -----------------------------------------------------------------

TEST(ObsTraceTest, SpansAndInstantsEmitChromeTraceJson) {
  Tracer tracer;
  {
    const Tracer::Span outer =
        tracer.span("phase \"one\"", "test", {{"k", "v"}});
    const Tracer::Span inner = tracer.span("inner", "test");
    tracer.instant("marker", "test");
  }
  EXPECT_EQ(tracer.events(), 3u);
  const std::string json = tracer.json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("phase \\\"one\\\""), std::string::npos);  // escaped
  EXPECT_NE(json.find("\"k\":\"v\""), std::string::npos);

  tracer.clear();
  EXPECT_EQ(tracer.events(), 0u);
}

TEST(ObsTraceTest, MaybeSpanWithoutTracerIsInert) {
  {
    const Tracer::Span span = obs::maybe_span(nullptr, "nothing");
    EXPECT_FALSE(span.live());
  }
  Tracer off(/*enabled=*/false);
  {
    const Tracer::Span span = obs::maybe_span(&off, "nothing");
    EXPECT_FALSE(span.live());
  }
  EXPECT_EQ(off.events(), 0u);
}

TEST(ObsTraceTest, WriteDumpsLoadableJson) {
  test::TempFile file("obs_trace.json");
  Tracer tracer;
  { const Tracer::Span span = tracer.span("write-test"); }
  tracer.write(file.path());
  const std::string contents = test::slurp(file.path());
  EXPECT_NE(contents.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(contents.find("write-test"), std::string::npos);
}

// --- exposition -------------------------------------------------------------

TEST(MetricsExportTest, PrometheusTextFormat) {
  MetricsRegistry reg;
  reg.counter("cebis_requests_total", "Requests", {{"route", "a\"b"}}).add(3);
  reg.gauge("cebis_depth", "Depth").set(1.5);
  const std::vector<double> bounds = {1.0, 2.0};
  obs::Histogram h = reg.histogram("cebis_lat", "Latency", bounds);
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);

  const std::string text = io::to_prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("# HELP cebis_requests_total Requests"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cebis_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("cebis_requests_total{route=\"a\\\"b\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cebis_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("cebis_depth 1.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cebis_lat histogram"), std::string::npos);
  // Buckets are cumulative and end at the mandatory +Inf = _count.
  EXPECT_NE(text.find("cebis_lat_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("cebis_lat_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("cebis_lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("cebis_lat_sum 11"), std::string::npos);
  EXPECT_NE(text.find("cebis_lat_count 3"), std::string::npos);
}

TEST(MetricsExportTest, JsonSnapshotAndFileWriters) {
  test::TempFile prom("obs_export.prom");
  test::TempFile json("obs_export.json");
  MetricsRegistry reg;
  reg.counter("cebis_n", "N", {{"k", "v"}}).add(2);

  const MetricsSnapshot snap = reg.snapshot();
  const std::string doc = io::to_metrics_json(snap);
  EXPECT_NE(doc.find("\"name\":\"cebis_n\""), std::string::npos);
  EXPECT_NE(doc.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(doc.find("\"k\":\"v\""), std::string::npos);
  EXPECT_NE(doc.find("\"value\":2"), std::string::npos);

  io::write_prometheus_file(snap, prom.path());
  io::write_metrics_json_file(snap, json.path());
  EXPECT_NE(test::slurp(prom.path()).find("cebis_n{k=\"v\"} 2"),
            std::string::npos);
  EXPECT_EQ(test::slurp(json.path()), doc);
}

// --- event log instrumentation ----------------------------------------------

TEST(ObsEventLogTest, WriterAndReaderCountersMatchTheAccessors) {
  test::TempFile file("obs_eventlog.bin");
  MetricsRegistry reg;
  std::int64_t frame_bytes = 0;
  {
    service::EventLogWriter writer(file.path(), {.metrics = &reg});
    for (int i = 0; i < 5; ++i) {
      writer.write(service::PriceTickRecord{HubId{0}, i, 42.0});
    }
    writer.close();
    frame_bytes = writer.bytes_written();
    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.value_or("cebis_eventlog_frames_written_total", -1),
                     double(writer.frames()));
    // The byte counter covers frames only; bytes_written() includes the
    // fixed header.
    EXPECT_GT(snap.value_or("cebis_eventlog_bytes_written_total", -1), 0.0);
    EXPECT_LT(snap.value_or("cebis_eventlog_bytes_written_total", -1),
              double(frame_bytes));
  }
  service::EventLogReader reader(file.path(), {.metrics = &reg});
  int read = 0;
  while (reader.next()) ++read;
  EXPECT_EQ(read, 5);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.value_or("cebis_eventlog_frames_read_total", -1), 5.0);
  EXPECT_DOUBLE_EQ(snap.value_or("cebis_eventlog_crc_failures_total", -1),
                   0.0);
  EXPECT_DOUBLE_EQ(snap.value_or("cebis_eventlog_bytes_read_total", -1),
                   snap.value_or("cebis_eventlog_bytes_written_total", -2));
}

TEST(ObsEventLogTest, CrcFailureBumpsTheCounterBeforeThrowing) {
  test::TempFile file("obs_eventlog_crc.bin");
  {
    service::EventLogWriter writer(file.path());
    writer.write(service::PriceTickRecord{HubId{0}, 0, 42.0});
    writer.close();
  }
  {
    // Flip one payload byte of the first frame (header is 16 bytes,
    // frame header 5 more).
    std::fstream f(file.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(16 + 5 + 2);
    const char byte = 0x5A;
    f.write(&byte, 1);
  }
  MetricsRegistry reg;
  service::EventLogReader reader(file.path(), {.metrics = &reg});
  EXPECT_THROW((void)reader.next(), service::EventLogError);
  EXPECT_DOUBLE_EQ(
      reg.snapshot().value_or("cebis_eventlog_crc_failures_total", -1), 1.0);
}

// --- the determinism contract -----------------------------------------------

class ObsSweepTest : public ::testing::Test {
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

core::Fixture* ObsSweepTest::fixture_ = nullptr;

/// Field-by-field bitwise comparison (mirrors test_scenario_api.cpp).
void expect_bitwise_equal(const core::RunResult& a, const core::RunResult& b,
                          std::size_t index) {
  EXPECT_EQ(a.total_cost.value(), b.total_cost.value()) << index;
  EXPECT_EQ(a.total_energy.value(), b.total_energy.value()) << index;
  EXPECT_EQ(a.mean_distance_km, b.mean_distance_km) << index;
  EXPECT_EQ(a.p99_distance_km, b.p99_distance_km) << index;
  EXPECT_EQ(a.hit_hours, b.hit_hours) << index;
  EXPECT_EQ(a.overflow_steps, b.overflow_steps) << index;
  ASSERT_EQ(a.cluster_cost.size(), b.cluster_cost.size()) << index;
  for (std::size_t c = 0; c < a.cluster_cost.size(); ++c) {
    EXPECT_EQ(a.cluster_cost[c], b.cluster_cost[c]) << index;
    EXPECT_EQ(a.cluster_energy[c], b.cluster_energy[c]) << index;
    EXPECT_EQ(a.realized_p95[c], b.realized_p95[c]) << index;
  }
  ASSERT_EQ(a.hourly_energy.data().size(), b.hourly_energy.data().size());
  for (std::size_t i = 0; i < a.hourly_energy.data().size(); ++i) {
    EXPECT_EQ(a.hourly_energy.data()[i], b.hourly_energy.data()[i]) << index;
  }
  EXPECT_EQ(a.storage.engaged, b.storage.engaged) << index;
  EXPECT_EQ(a.storage.net_energy.value(), b.storage.net_energy.value())
      << index;
  EXPECT_EQ(a.storage.net_demand.value(), b.storage.net_demand.value())
      << index;
  EXPECT_EQ(a.storage.charged_mwh, b.storage.charged_mwh) << index;
  EXPECT_EQ(a.storage.discharged_mwh, b.storage.discharged_mwh) << index;
}

/// The mixed 11-cell sweep of ParallelSweepMatchesSerialByteForByte:
/// shared engines, a private-engine hook, storage, a sub-hourly market
/// and a pinned observer-carrying cell.
std::vector<core::ScenarioSpec> mixed_specs() {
  using core::ScenarioSpec;
  std::vector<ScenarioSpec> specs;
  const ScenarioSpec base{
      .router = "baseline",
      .energy = energy::google_params(),
      .workload = core::WorkloadKind::kTrace24Day,
  };
  specs.push_back(base);
  {
    ScenarioSpec st = base;
    st.router = "static-cheapest";
    specs.push_back(st);
  }
  for (const double km : {0.0, 1500.0}) {
    for (const bool follow : {true, false}) {
      ScenarioSpec s = base;
      s.router = "price-aware";
      s.config = core::PriceAwareConfig{.distance_threshold = Km{km}};
      s.enforce_p95 = follow;
      specs.push_back(s);
    }
  }
  {
    ScenarioSpec joint = base;
    joint.router = "joint-objective";
    joint.config = core::JointObjectiveConfig{.lambda_usd_per_mwh_km = 0.01};
    specs.push_back(joint);
  }
  {
    ScenarioSpec st = base;
    st.router = "price-aware";
    st.config = core::PriceAwareConfig{.distance_threshold = Km{1500.0}};
    core::StorageSpec storage;
    storage.battery = storage::battery_for_mean_load(0.2, 4.0);
    storage.policy = "lyapunov";
    storage.tariff.demand_usd_per_kw_month = Usd{12.0};
    st.storage = storage;
    specs.push_back(st);
  }
  {
    ScenarioSpec sub = base;
    sub.router = "price-aware";
    sub.config = core::PriceAwareConfig{.distance_threshold = Km{1500.0}};
    sub.market_interval_minutes = 5;
    specs.push_back(sub);
  }
  {
    ScenarioSpec hooked = base;
    hooked.router = "price-aware";
    hooked.config = core::PriceAwareConfig{.distance_threshold = Km{1500.0}};
    hooked.capacity_factor = [](std::size_t, HourIndex) { return 1.0; };
    specs.push_back(hooked);
  }
  {
    ScenarioSpec observed = base;
    observed.router = "price-aware";
    observed.config = core::PriceAwareConfig{.distance_threshold = Km{1500.0}};
    specs.push_back(observed);
  }
  return specs;
}

TEST_F(ObsSweepTest, MetricsAndTracingNeverPerturbResults) {
  std::vector<core::ScenarioSpec> plain_specs = mixed_specs();
  std::vector<core::ScenarioSpec> tapped_specs = mixed_specs();
  ASSERT_EQ(plain_specs.size(), 11u);
  core::HourlyEnergyRecorder plain_recorder;
  core::HourlyEnergyRecorder tapped_recorder;
  plain_specs.back().observers = {&plain_recorder};
  tapped_specs.back().observers = {&tapped_recorder};

  const std::vector<core::RunResult> plain = core::run_scenarios(
      *fixture_, plain_specs, core::SweepOptions{.threads = 4});

  MetricsRegistry reg;
  Tracer tracer;
  core::SweepStats stats;
  const std::vector<core::RunResult> tapped = core::run_scenarios(
      *fixture_, tapped_specs,
      core::SweepOptions{.threads = 4, .taps = {&reg, &tracer}},
      &stats);

  ASSERT_EQ(tapped.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    expect_bitwise_equal(plain[i], tapped[i], i);
  }

  // The tapped sweep actually observed things.
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.value_or("cebis_sweep_cells_total", -1.0),
                   double(plain_specs.size()));
  EXPECT_DOUBLE_EQ(snap.value_or("cebis_sweep_engines_built_total", -1.0),
                   double(stats.engines_built));
  EXPECT_GT(snap.value_or("cebis_price_history_materialized_hours", -1.0),
            0.0);
  double steps = 0.0;
  double runs = 0.0;
  for (const obs::MetricSample& s : snap.samples) {
    if (s.name == "cebis_engine_steps_total") steps += s.value;
    if (s.name == "cebis_engine_runs_total") runs += s.value;
  }
  EXPECT_GT(steps, 0.0);
  EXPECT_DOUBLE_EQ(runs, double(plain_specs.size()));
  // The storage cell carries a demand tariff, so its guard counter is
  // registered (activations may legitimately be zero).
  EXPECT_NE(snap.find("cebis_storage_guard_activations_total",
                      {{"policy", "lyapunov"}}),
            nullptr);
  // Per-worker fan-out accounting covers every pooled cell exactly once.
  double worker_cells = 0.0;
  for (const obs::MetricSample& s : snap.samples) {
    if (s.name == "cebis_sweep_worker_cells_total") worker_cells += s.value;
  }
  EXPECT_DOUBLE_EQ(worker_cells, double(stats.parallel_cells));

  // Extended SweepStats: a wall-clock per cell plus the skew argmax.
  ASSERT_EQ(stats.cell_wall_ms.size(), plain_specs.size());
  for (const double ms : stats.cell_wall_ms) EXPECT_GT(ms, 0.0);
  EXPECT_LT(stats.slowest_cell, plain_specs.size());
  EXPECT_GT(stats.plan_wall_ms, 0.0);
  EXPECT_GT(stats.run_wall_ms, 0.0);

  // Spans were recorded for the plan phase and every cell.
  EXPECT_GE(tracer.events(), 1u + plain_specs.size());

  // The recorder rode along identically in both sweeps.
  ASSERT_EQ(plain_recorder.energy().data().size(),
            tapped_recorder.energy().data().size());
  for (std::size_t i = 0; i < plain_recorder.energy().data().size(); ++i) {
    EXPECT_EQ(plain_recorder.energy().data()[i],
              tapped_recorder.energy().data()[i]);
  }
}

// --- live engine instrumentation --------------------------------------------

class ObsLiveTest : public ::testing::Test {
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

core::Fixture* ObsLiveTest::fixture_ = nullptr;

/// Drives `hours` of a live session from the fixture's own market and
/// trace (the test_replay_equals_live idiom).
core::RunResult drive_live(const core::Fixture& fixture,
                           service::LiveEngine& live,
                           const service::LiveConfig& config) {
  const int sph = config.samples_per_hour;
  const int margin = config.delay_steps > 0
                         ? (config.delay_steps + sph - 1) / sph
                         : config.delay_hours;
  const Period priced{config.period.begin - margin, config.period.end};
  const market::PriceSet& feed = fixture.prices_covering(priced, sph);

  std::vector<HubId> hubs;
  for (const core::Cluster& c : fixture.clusters) {
    bool seen = false;
    for (const HubId h : hubs) seen = seen || h.index() == c.hub.index();
    if (!seen) hubs.push_back(c.hub);
  }

  const core::TraceWorkload demand_feed(fixture.trace, fixture.allocation);
  std::vector<double> demand(demand_feed.state_count(), 0.0);
  for (std::int64_t interval = priced.begin * sph;
       interval < config.period.end * sph; ++interval) {
    const HourIndex hour = interval / sph;
    const int sub = static_cast<int>(interval - hour * sph);
    for (const HubId hub : hubs) {
      live.on_price_tick(hub, interval, feed.rt_at(hub, hour, sub).value());
    }
    while (!live.done() && live.needed_end() <= live.sealed_end()) {
      demand_feed.demand(live.steps_done(), demand);
      live.advance(demand);
    }
  }
  return live.finish();
}

TEST_F(ObsLiveTest, JointRouterReportsPlanRebuildsGenerically) {
  // Satellite: LiveTelemetry::plan_rebuilds reads Router::counters()
  // instead of downcasting to PriceAwareRouter - the joint-objective
  // scheme must report a live nonzero count through the generic path.
  const Period trace = fixture_->trace.period();
  service::LiveConfig config;
  config.router = "joint-objective";
  config.router_config = core::JointObjectiveConfig{.lambda_usd_per_mwh_km =
                                                        0.01};
  config.period = Period{trace.begin, trace.begin + 3};
  config.shadow_baseline = false;

  service::LiveEngine live(*fixture_, config);
  (void)drive_live(*fixture_, live, config);
  EXPECT_GT(live.telemetry().plan_rebuilds, 0);
}

TEST_F(ObsLiveTest, LiveTapsCountTicksAndPublishSealHeadroom) {
  const Period trace = fixture_->trace.period();
  MetricsRegistry reg;
  service::LiveConfig plain_config;
  plain_config.period = Period{trace.begin, trace.begin + 3};
  plain_config.shadow_baseline = false;

  service::LiveConfig tapped_config = plain_config;
  tapped_config.taps.metrics = &reg;

  service::LiveEngine plain(*fixture_, plain_config);
  const core::RunResult a = drive_live(*fixture_, plain, plain_config);
  service::LiveEngine tapped(*fixture_, tapped_config);
  const core::RunResult b = drive_live(*fixture_, tapped, tapped_config);

  // Instrumented and uninstrumented sessions agree bitwise.
  expect_bitwise_equal(a, b, 0);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_GT(snap.value_or("cebis_live_price_ticks_total", -1.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.value_or("cebis_live_blocked_advances_total", -1.0),
                   0.0);
  EXPECT_GE(snap.value_or("cebis_live_seal_headroom_intervals", -1.0), 0.0);
  // One gap gauge per tracked hub, all zero after a gapless feed.
  int hub_gauges = 0;
  for (const obs::MetricSample& s : snap.samples) {
    if (s.name == "cebis_live_hub_gap_intervals") {
      ++hub_gauges;
      EXPECT_DOUBLE_EQ(s.value, 0.0);
    }
  }
  EXPECT_GT(hub_gauges, 0);

  // A premature advance is counted, then throws.
  service::LiveConfig blocked_config = tapped_config;
  service::LiveEngine blocked(*fixture_, blocked_config);
  const std::vector<double> demand(blocked.state_count(), 1.0);
  EXPECT_THROW(blocked.advance(demand), std::logic_error);
  EXPECT_DOUBLE_EQ(
      reg.snapshot().value_or("cebis_live_blocked_advances_total", -1.0), 1.0);
}

}  // namespace
}  // namespace cebis
