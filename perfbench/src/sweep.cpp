// The `sweep` workload: the Fig-18 39-month grid through
// core::run_scenarios on an explicit two-thread pool.
//
// End to end: steps_per_s = sum of cell steps / wall time of one
// run_scenarios pass over the full grid (the fastest timed pass). Each
// run_scenarios pass is followed by stepped passes - every cell of the
// grid over its first 12 weeks, driven serially through
// SimulationEngine::begin/step/finish the way the live service and
// replay drive the engine - whose per-step wall times (one routing
// decision, accounted; 28,224 per pass) give decision_p50_us /
// decision_p90_us and whose throughput is replay_steps_per_s. Every
// pass is checked cell by cell, bit for bit, against a serial
// (threads = 1) reference, and at seed 2009 the reference must hold the
// golden Fig-18 anchors.
//
// Traced: the same stepped pass with routing timed through a wrapper
// router registered next to the built-in "price-aware" factory (a
// traced 39-month pass would hold ~10^6 spans).

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/router_registry.h"
#include "core/workload.h"
#include "harness.h"
#include "service/replay.h"
#include "spans.h"

namespace perfbench {

using namespace cebis;

namespace {

constexpr int kSweepThreads = 2;
constexpr const char* kTimedRouter = "perfbench-timed-price-aware";
/// Hours of each cell a stepped (begin/step/finish) pass drives.
constexpr std::int64_t kSteppedWindowHours = 12 * 7 * 24;
/// Stepped passes after each run_scenarios pass.
constexpr int kSteppedPerPass = 2;

/// Golden Fig-18 anchors at seed 2009 (tests/test_golden_figures.cpp).
constexpr double kRelax2500 = 0.667258481;
constexpr double kStaticCheapest = 0.702096107;
constexpr double kGoldenRel = 1e-6;

// The traced driver's context for the wrapper router: the span log and
// the step being routed (set by the driver before each step).
SpanLog* g_route_spans = nullptr;
std::int64_t g_route_step = -1;

/// Times every Router::route call of the built-in price-aware router.
class TimedRouter final : public core::Router {
 public:
  explicit TimedRouter(std::unique_ptr<core::Router> inner)
      : inner_(std::move(inner)) {}

  void route(const core::RoutingContext& ctx, core::Allocation& out) override {
    const SpanLog::Scope span =
        maybe_open(g_route_spans, "core.route", g_route_step);
    inner_->route(ctx, out);
  }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<core::RouterCounter> counters() const override {
    return inner_->counters();
  }

 private:
  std::unique_ptr<core::Router> inner_;
};

void register_timed_router() {
  core::RouterRegistry& registry = core::RouterRegistry::instance();
  if (registry.contains(kTimedRouter)) return;
  const core::RouterEntry builtin = registry.at("price-aware");
  core::RouterEntry entry = builtin;
  entry.make = [make = builtin.make](const core::Fixture& fixture,
                                     const core::ScenarioSpec& spec) {
    core::ScenarioSpec inner = spec;
    inner.router = "price-aware";
    return std::unique_ptr<core::Router>(
        std::make_unique<TimedRouter>(make(fixture, inner)));
  };
  registry.add(kTimedRouter, std::move(entry));
}

/// The Fig-18 grid in spec order: baseline, static-cheapest, then
/// price-aware at each threshold x {follow, relax} 95/5. Small mode
/// keeps baseline and relax@2500 km over one day.
std::vector<core::ScenarioSpec> fig18_specs(bool small, Period window) {
  const core::ScenarioSpec base{
      .router = "baseline",
      .energy = energy::optimistic_future_params(),
      .workload = core::WorkloadKind::kSynthetic39Month,
      .synthetic_window = window,
  };
  std::vector<core::ScenarioSpec> specs;
  specs.push_back(base);
  if (small) {
    core::ScenarioSpec s = base;
    s.router = "price-aware";
    s.config = core::PriceAwareConfig{.distance_threshold = Km{2500.0}};
    s.enforce_p95 = false;
    specs.push_back(s);
    return specs;
  }
  core::ScenarioSpec st = base;
  st.router = "static-cheapest";
  specs.push_back(st);
  for (const double km : {0.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0}) {
    for (const bool follow : {true, false}) {
      core::ScenarioSpec s = base;
      s.router = "price-aware";
      s.config = core::PriceAwareConfig{.distance_threshold = Km{km}};
      s.enforce_p95 = follow;
      specs.push_back(s);
    }
  }
  return specs;
}

std::int64_t total_steps(const core::Fixture& fixture,
                         const std::vector<core::ScenarioSpec>& specs) {
  std::int64_t steps = 0;
  for (const core::ScenarioSpec& spec : specs) {
    steps += core::scenario_period(fixture, spec).hours();  // hourly steps
  }
  return steps;
}

/// Checks every cell of `runs` against `reference`, bit for bit.
void check_cells(Report& report, const std::vector<core::RunResult>& runs,
                 const std::vector<core::RunResult>& reference,
                 const std::string& what) {
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const std::string diff =
        i < runs.size() ? service::diff_run_results(runs[i], reference[i])
                        : std::string("cell missing");
    report.check(diff.empty(), what + " cell " + std::to_string(i) +
                                   " differs from the serial reference: " + diff);
  }
}

bool rel_near(double value, double expected, double rel) {
  return std::abs(value - expected) <= rel * std::abs(expected);
}

/// One begin/step/finish pass over every spec (serial, spec order).
/// Traced, the wrapper router stands in for "price-aware" and
/// `plan_rebuilds`/`routed_steps` accumulate its rebuild counter and
/// step count; untraced, `step_s` (when given) collects the wall time
/// of every Session::step - one routing decision, accounted.
std::vector<core::RunResult> drive_cells(
    const core::Fixture& fixture, const std::vector<core::ScenarioSpec>& specs,
    SpanLog* spans, std::int64_t* plan_rebuilds, std::int64_t* routed_steps,
    std::vector<double>* step_s) {
  const core::RouterRegistry& registry = core::RouterRegistry::instance();
  const SpanLog::Scope root = maybe_open(spans, "sweep.cells");
  std::vector<core::RunResult> results;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    core::ScenarioSpec spec = specs[i];
    if (spans != nullptr && spec.router == "price-aware") {
      spec.router = kTimedRouter;
    }
    const core::RouterEntry& entry = registry.at(spec.router);
    const core::SyntheticWorkload39 workload(
        fixture.synthetic, fixture.allocation,
        core::scenario_period(fixture, spec));
    core::EngineConfig cfg;
    cfg.energy = spec.energy;
    cfg.delay_hours = spec.delay_hours;
    cfg.enforce_p95 = spec.enforce_p95 && !entry.forces_relaxed_p95;
    const core::SimulationEngine engine(
        entry.clusters ? entry.clusters(fixture, spec) : fixture.clusters,
        fixture.prices(), fixture.distances, cfg);
    const std::unique_ptr<core::Router> router = entry.make(fixture, spec);

    const SpanLog::Scope cell =
        maybe_open(spans, "core.cell", static_cast<std::int64_t>(i));
    core::SimulationEngine::Session session = engine.begin(workload, *router);
    if (step_s != nullptr) {
      while (!session.done()) {
        const Clock::time_point t0 = Clock::now();
        session.step();
        step_s->push_back(seconds_since(t0));
      }
    }
    while (!session.done()) {
      g_route_step = session.steps_done();
      const SpanLog::Scope step = maybe_open(spans, "core.step", g_route_step);
      session.step();
    }
    results.push_back(session.finish());
    if (spec.router == kTimedRouter && plan_rebuilds != nullptr) {
      *routed_steps += workload.steps();
      for (const core::RouterCounter& c : router->counters()) {
        if (c.name == "plan_rebuilds") *plan_rebuilds += c.value;
      }
    }
  }
  return results;
}

}  // namespace

void run_sweep(const Options& options, Report& report) {
  const bool traced = options.trace;
  SpanLog span_log("sweep");
  SpanLog* spans = traced ? &span_log : nullptr;

  // --- set-up (before warm-up) ---------------------------------------------
  const Setups setups = timed_setups(
      options.seed,
      [](const core::Fixture& fx) {
        (void)fx.prices();
        (void)fx.cheapest_cluster();
      },
      spans, "market.cover_hourly");
  const core::Fixture& fx = *setups.fixture;

  const Period study = study_period();
  const Period small_window{study.begin + 48, study.begin + 72};
  const std::vector<core::ScenarioSpec> specs =
      fig18_specs(options.small, options.small ? small_window : Period{0, 0});
  const std::vector<core::ScenarioSpec> window_specs = fig18_specs(
      options.small,
      options.small
          ? small_window
          : Period{study.begin + 48, study.begin + 48 + kSteppedWindowHours});
  const std::int64_t steps = total_steps(fx, specs);
  const std::int64_t window_steps = total_steps(fx, window_specs);
  std::printf(
      "sweep: %zu cells, %lld steps per run_scenarios pass (%d threads), %lld "
      "per stepped pass\n",
      specs.size(), static_cast<long long>(steps), kSweepThreads,
      static_cast<long long>(window_steps));

  // --- untimed references ---------------------------------------------------
  const core::SweepOptions serial{.threads = 1};
  std::vector<core::RunResult> reference = core::run_scenarios(fx, specs, serial);
  std::vector<core::RunResult> window_reference =
      core::run_scenarios(fx, window_specs, serial);
  if (!options.small && options.seed == 2009) {
    const double base = reference[0].total_cost.value();
    const double relax = reference.back().total_cost.value() / base;
    const double st = reference[1].total_cost.value() / base;
    report.check(rel_near(relax, kRelax2500, kGoldenRel),
                 "Fig-18 anchor relax@2500km = " + std::to_string(relax));
    report.check(rel_near(st, kStaticCheapest, kGoldenRel),
                 "Fig-18 anchor static-cheapest = " + std::to_string(st));
  } else {
    std::printf("sweep: Fig-18 anchors are pinned at seed 2009 only; skipped\n");
  }
  if (options.perturb_reference) {
    reference[0].total_cost = Usd{reference[0].total_cost.value() + 1.0};
    window_reference[0].total_cost =
        Usd{window_reference[0].total_cost.value() + 1.0};
  }

  // --- warm-up, then timed passes --------------------------------------------
  // Each iteration: one run_scenarios pass (steps_per_s), then stepped
  // passes whose per-step times are decision latencies and whose
  // throughput is replay_steps_per_s.
  const core::SweepOptions sweep_options{.threads = kSweepThreads};
  std::vector<double> step_s;  // one stepped pass's per-step times
  check_cells(report, core::run_scenarios(fx, specs, sweep_options), reference,
              "warm-up");
  check_cells(report, drive_cells(fx, window_specs, nullptr, nullptr, nullptr,
                                  &step_s),
              window_reference, "stepped warm-up");

  const double budget = traced ? options.seconds * 0.4 : options.seconds;
  std::vector<double> pass_s;
  std::vector<double> stepped_s;
  std::vector<double> p50_s;  // per stepped pass
  std::vector<double> p90_s;
  std::vector<double> plan_ms;
  std::vector<double> idle_frac;
  const Clock::time_point loop0 = Clock::now();
  while (pass_s.size() < 3 || seconds_since(loop0) < budget) {
    core::SweepStats stats;
    const Clock::time_point t0 = Clock::now();
    const std::vector<core::RunResult> runs =
        core::run_scenarios(fx, specs, sweep_options, &stats);
    pass_s.push_back(seconds_since(t0));
    check_cells(report, runs, reference, "pass " + std::to_string(pass_s.size()));
    double cell_ms = 0.0;
    for (const double ms : stats.cell_wall_ms) cell_ms += ms;
    plan_ms.push_back(stats.plan_wall_ms);
    idle_frac.push_back(1.0 - cell_ms / (stats.threads_used * stats.run_wall_ms));

    for (int i = 0; i < kSteppedPerPass; ++i) {
      step_s.clear();
      const Clock::time_point s0 = Clock::now();
      const std::vector<core::RunResult> stepped =
          drive_cells(fx, window_specs, nullptr, nullptr, nullptr, &step_s);
      stepped_s.push_back(seconds_since(s0));
      p50_s.push_back(quantile(step_s, 0.5));
      p90_s.push_back(quantile(step_s, 0.9));
      check_cells(report, stepped, window_reference,
                  "stepped pass " + std::to_string(stepped_s.size()));
    }
  }
  describe("sweep run_scenarios passes", pass_s);
  describe("sweep stepped passes", stepped_s);
  describe("sweep decision p50 per stepped pass", p50_s, 1e6, "us");
  describe("sweep decision p90 per stepped pass", p90_s, 1e6, "us");

  if (!traced) {
    report.metric("steps_per_s", static_cast<double>(steps) / best(pass_s),
                  "steps/s");
    report.metric("decision_p50_us", 1e6 * best(p50_s), "us");
    report.metric("decision_p90_us", 1e6 * best(p90_s), "us");
    report.metric("replay_steps_per_s",
                  static_cast<double>(window_steps) / best(stepped_s), "steps/s");
    report.metric("setup_s", median(setups.total_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("ok_frac", report.ok_frac(), "ratio");
    return;
  }

  // --- traced stepped passes -------------------------------------------------
  register_timed_router();
  std::int64_t rebuilds = 0;
  std::int64_t routed = 0;
  std::vector<double> traced_s;
  g_route_spans = spans;
  for (int i = 0; i < 3; ++i) {
    rebuilds = 0;
    routed = 0;
    span_log.set_pass(i);
    const Clock::time_point t0 = Clock::now();
    const std::vector<core::RunResult> runs =
        drive_cells(fx, window_specs, spans, &rebuilds, &routed, nullptr);
    traced_s.push_back(seconds_since(t0));
    check_cells(report, runs, window_reference, "traced stepped pass");
  }
  g_route_spans = nullptr;

  auto mean_us = [](const std::vector<double>& s) {
    double sum = 0.0;
    for (const double v : s) sum += v;
    return s.empty() ? 0.0 : 1e6 * sum / static_cast<double>(s.size());
  };
  LayerValues layers;
  layers.set("core.route_us", mean_us(span_log.self_times("core.route")));
  layers.set("core.step_self_us", mean_us(span_log.self_times("core.step")));
  layers.set("core.plan_rebuilds_per_step",
             routed > 0 ? static_cast<double>(rebuilds) / static_cast<double>(routed)
                        : 0.0);
  layers.set("core.sweep_plan_ms", median(plan_ms));
  layers.set("core.pool_idle_frac", median(idle_frac));
  layers.set("market.fixture_make_s", median(setups.make_s));
  layers.set("market.cover_hourly_s", median(setups.cover_s));
  layers.set("obs.trace_overhead_frac", best(traced_s) / best(stepped_s) - 1.0);

  span_log.print_table("sweep.cells");
  span_log.print_table("market.fixture_make");
  span_log.print_table("market.cover_hourly");
  const std::string path = join_path(options.out_dir, "trace_sweep.json");
  span_log.write_json(path);
  std::printf("spans: %zu written to %s\n", span_log.size(), path.c_str());
  layers.emit(report, "sweep");
}

}  // namespace perfbench
