#ifndef CEBIS_PERFBENCH_HARNESS_H
#define CEBIS_PERFBENCH_HARNESS_H

// Shared scaffolding of the end-to-end benchmark: options, wall-clock
// helpers, order statistics, the metric report with its correctness
// counters, and the live-session inputs the `live` and `socket`
// workloads share.
//
// Every timing here is wall time on std::chrono::steady_clock taken by
// the harness around calls into the library's public API. Inputs are
// generated before any timed window opens.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "service/event_log.h"
#include "service/live_engine.h"

namespace perfbench {

class SpanLog;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 2009;
  double seconds = 20.0;
  bool trace = false;
  /// Small inputs (1-day windows, a 2-cell grid) for the self-test.
  bool small = false;
  /// Perturbs every reference the outputs are checked against, so the
  /// self-test can show the correctness gate firing.
  bool perturb_reference = false;
  /// Where the span JSON of a traced run goes.
  std::string out_dir = ".";
  /// Where the event logs go: $TMPDIR, else out_dir.
  std::string tmp_dir = ".";
};

/// Median (mean of the middle pair for even sizes); 0 for an empty set.
[[nodiscard]] double median(std::vector<double> values);

/// The smallest value (the least-interfered pass); 0 for an empty set.
[[nodiscard]] double best(const std::vector<double>& values);

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Prints the distribution of a series of wall times (seconds), scaled
/// by `scale` into `unit`.
void describe(const char* what, const std::vector<double>& seconds,
              double scale = 1.0, const char* unit = "s");

/// ru_maxrss of this process in MB.
[[nodiscard]] double peak_rss_mb();

/// Metrics and the correctness counters behind ok_frac. A failed check
/// is counted and printed; it never aborts the run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);

  /// Counts one verified operation; prints `what` when it failed.
  void check(bool ok, const std::string& what);

  [[nodiscard]] double ok_frac() const;

  /// The result object: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// The per-layer metric catalogue (name, unit), in BENCHMARK.json
/// order. A traced run prints every entry; layers a workload does not
/// exercise are reported as 0 and named on stdout.
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& layer_catalogue();

/// Collects the per-layer values a traced run measured and emits the
/// whole catalogue into the report.
class LayerValues {
 public:
  void set(const std::string& name, double value);
  void emit(Report& report, const std::string& workload) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Times `fn` `times` times and returns the fastest wall seconds.
[[nodiscard]] double best_seconds(int times, const std::function<void()>& fn);

// --- live-session inputs (shared by `live` and `socket`) -------------------

/// Everything a live session consumes, generated before timing: the
/// settlement ticks (one per tracked hub per 5-minute interval, in
/// interval order) and the per-step demand rows.
struct LiveInputs {
  cebis::service::LiveConfig config;
  cebis::service::SessionMeta meta;
  std::vector<cebis::HubId> hubs;
  std::int64_t intervals = 0;  ///< 5-minute intervals the ticks cover
  std::vector<cebis::service::PriceTickRecord> ticks;  ///< intervals x hubs
  std::vector<cebis::service::WorkloadStepRecord> steps;

  [[nodiscard]] std::int64_t step_count() const {
    return static_cast<std::int64_t>(steps.size());
  }
};

/// The live session the benchmark runs: price-aware defaults at
/// delay_hours = 1, 5-minute steps on the 5-minute market, the shadow
/// baseline on, and a uniform battery behind every cluster under a
/// demand-charge tariff. The window is the 24-day trace, or its first
/// day in small mode.
[[nodiscard]] cebis::service::LiveConfig live_config(
    const cebis::core::Fixture& fixture, bool small);

/// Generates the session's inputs from the fixture's own market and
/// trace (materializing the 5-minute prices the window needs).
[[nodiscard]] LiveInputs make_live_inputs(const cebis::core::Fixture& fixture,
                                          bool small);

/// The live session as a batch ScenarioSpec (the 24-day trace workload
/// on the 5-minute market, with the same storage).
[[nodiscard]] cebis::core::ScenarioSpec live_spec(
    const cebis::service::LiveConfig& config);

/// One in-process live session, closed loop with one caller: interval
/// i's ticks go through on_price_tick, every step they seal is
/// advanced, then interval i+1. `wall_s` runs from LiveEngine
/// construction to the return of finish(); `latency_s` holds, per
/// step, the time from the first tick of its interval to the return of
/// the advance it unblocked. The event log goes to `log_path`.
struct LiveSession {
  cebis::core::RunResult result;
  double wall_s = 0.0;
  std::vector<double> latency_s;
  std::int64_t log_bytes = 0;
  std::int64_t log_frames = 0;
};
[[nodiscard]] LiveSession drive_live(const cebis::core::Fixture& fixture,
                                     const LiveInputs& inputs,
                                     const std::string& log_path,
                                     SpanLog* spans);

/// `dir`/`name`, creating nothing.
[[nodiscard]] std::string join_path(const std::string& dir,
                                    const std::string& name);

/// Fresh set-ups per run; setup_s is the median of their wall times.
inline constexpr int kSetups = 5;

/// kSetups fresh set-ups, each timed: core::Fixture::make, then `cover`
/// materializes the prices the workload reads, then `extra` (when set)
/// returns any further set-up seconds it measured itself. With
/// `spans`, make and cover are traced as market.fixture_make and
/// `cover_span`. The last fixture is kept for the run.
struct Setups {
  std::unique_ptr<cebis::core::Fixture> fixture;
  std::vector<double> total_s;
  std::vector<double> make_s;
  std::vector<double> cover_s;
};
[[nodiscard]] Setups timed_setups(
    std::uint64_t seed,
    const std::function<void(const cebis::core::Fixture&)>& cover,
    SpanLog* spans, const char* cover_span,
    const std::function<double(const cebis::core::Fixture&)>& extra = {});

// --- workloads --------------------------------------------------------------
//
// Each runs set-up, an untimed correctness reference, an untimed
// warm-up pass and then timed passes for options.seconds, filling the
// report with the end-to-end metrics (or, traced, the per-layer ones).

void run_sweep(const Options& options, Report& report);
void run_live(const Options& options, Report& report);
void run_socket(const Options& options, Report& report);

}  // namespace perfbench

#endif  // CEBIS_PERFBENCH_HARNESS_H
