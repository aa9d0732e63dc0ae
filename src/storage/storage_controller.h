#ifndef CEBIS_STORAGE_STORAGE_CONTROLLER_H
#define CEBIS_STORAGE_STORAGE_CONTROLLER_H

// StepObserver that puts a battery behind the meter at every cluster.
//
// Each metering interval it sees the cluster's grid energy and the
// interval's billing price, asks the scenario's charge policy for an
// intent, clamps it against the battery's physical limits (and, under a
// demand-charge tariff, against a floor on the month's billed raw demand
// so charging never creates a new billing peak), and accumulates two load
// series per cluster on the run's *native metering interval* - the
// market's price interval (hourly for the paper's setup, 5-minute for a
// 5-minute market): the raw draw the engine accounted and the net draw
// after the battery acted. At run end both series are billed under the
// scenario's tariff (billing/tariff.h) and the raw-vs-net comparison is
// folded into RunResult::storage.
//
// Charge guard. Demand is billed at the tariff's percentile of each
// calendar month's interval average power, so charging must never lift
// the billed net demand above the raw (no-battery) level. The battery
// therefore acts once per *metering interval*, when that interval's raw
// load is known:
//
//  - a step no finer than the meter covers whole intervals, so the
//    battery acts every step;
//  - a step finer than the meter (the 5-minute trace under an hourly or
//    15-minute market) is summed until the interval's last step, and
//    the battery then acts once on the whole interval, at the
//    interval's billing price (constant within it: the meter is the
//    market's native interval).
//
// Either way the interval's raw load is known at decision time, and
// charging is capped at max(raw, L) per interval, where L is a provable
// lower bound on the month's final billed raw demand (the R-7 lower
// order statistic of the month's raw intervals so far, padded with
// zeros for the intervals still to come - monotone in the padding, so
// it can only rise toward the true level). Net billed demand <= raw
// billed demand then holds at any percentile and any resolution
// (property-tested in tests/test_storage_metering.cpp).
//
// The controller never influences routing or the engine's own dollar
// accounting - it composes with SecondaryMeter and HourlyEnergyRecorder
// like any other observer. Scenarios normally engage it declaratively
// via ScenarioSpec::storage (run_scenarios attaches one per run), but
// it can be attached by hand like any StepObserver.

#include <memory>
#include <queue>
#include <vector>

#include "core/scenario.h"
#include "core/simulation.h"
#include "core/step_observer.h"
#include "obs/metrics.h"
#include "storage/battery.h"
#include "storage/policy.h"

namespace cebis::storage {

/// Ascending order statistic of a growing multiset: a max-heap of the
/// smallest `rank + 1` elements against a min-heap of the rest, so both
/// insert() and at() are O(log n). The charge guard reads exactly
/// one order statistic per decision, at a rank that only advances as
/// the month's intervals complete - a sorted-vector insert would
/// memmove O(n) doubles per step and go quadratic over long sub-hourly
/// months (8928 five-minute intervals in a 31-day month).
class RunningOrderStatistic {
 public:
  void clear() {
    low_ = {};
    high_ = {};
  }
  void insert(double x) {
    if (!low_.empty() && x <= low_.top()) {
      low_.push(x);
    } else {
      high_.push(x);
    }
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return low_.size() + high_.size();
  }
  /// Value at ascending 0-based `rank` (must be < size()). Rebalances
  /// the heaps toward the requested rank.
  [[nodiscard]] double at(std::size_t rank) {
    while (low_.size() < rank + 1) {
      low_.push(high_.top());
      high_.pop();
    }
    while (low_.size() > rank + 1) {
      high_.push(low_.top());
      low_.pop();
    }
    return low_.top();
  }

 private:
  std::priority_queue<double> low_;  // max-heap: the smallest elements
  std::priority_queue<double, std::vector<double>, std::greater<>> high_;
};

class StorageController final : public core::StepObserver {
 public:
  /// Validates the spec eagerly (policy name, per-cluster override
  /// shape is checked at run begin). Throws std::invalid_argument.
  /// `metrics`, when given (borrowed, may be null), receives the
  /// charge-guard activation counter - incremented whenever the
  /// demand-charge guard clips a policy's charge intent. Write-only:
  /// the guard's decisions never read it back.
  explicit StorageController(core::StorageSpec spec,
                             obs::MetricsRegistry* metrics = nullptr);
  ~StorageController() override;

  void on_run_begin(const core::RunInfo& info,
                    std::span<const core::Cluster> clusters) override;
  void on_step(const core::StepView& view) override;
  void on_run_end(core::RunResult& result) override;

  /// The accounting of the last completed run (also folded into the
  /// RunResult). engaged is false before the first run ends.
  [[nodiscard]] const core::StorageOutcome& outcome() const noexcept {
    return outcome_;
  }
  /// Per-cluster batteries of the current/last run (post-run state of
  /// charge inspection).
  [[nodiscard]] const std::vector<Battery>& batteries() const noexcept {
    return batteries_;
  }

 private:
  /// Provable lower bound on the month's final billed raw demand (MWh
  /// per interval) for one cluster: the R-7 lower order statistic of
  /// the month's raw intervals completed so far, zero-padded to the
  /// month's full (period-clipped) interval count. Non-const: reading
  /// the statistic rebalances the cluster's selection heaps.
  [[nodiscard]] double raw_demand_floor(std::size_t cluster);

  /// Resets per-month guard state when `month` starts (also used for
  /// run-begin initialization, so a run starting mid-month counts only
  /// the intervals the billing period actually covers - the historical
  /// sentinel-based init path left that count implicit).
  void begin_month(int month);

  core::StorageSpec spec_;
  core::StorageOutcome outcome_;

  obs::MetricsRegistry* metrics_ = nullptr;  ///< borrowed, may be null
  obs::Counter m_guard_activations_;         ///< resolved at run begin

  Period period_{0, 0};
  int steps_per_hour_ = 1;
  int meter_sph_ = 1;           ///< metering rows per hour (price interval)
  int steps_per_interval_ = 1;  ///< steps summed into one decision
  bool guard_peaks_ = false;    ///< the tariff carries a demand charge

  std::vector<Battery> batteries_;
  std::vector<std::unique_ptr<ChargePolicy>> policies_;
  std::vector<std::vector<double>> raw_mwh_;   // [cluster][interval]
  std::vector<std::vector<double>> net_mwh_;   // [cluster][interval]
  std::vector<std::vector<double>> spot_;      // [cluster][interval]
  std::vector<double> pending_mwh_;  ///< raw load of the open interval

  // --- month-scoped guard state ---------------------------------------
  int guard_month_ = 0;                ///< calendar month being metered
  std::int64_t month_intervals_ = 0;   ///< intervals of month ∩ period
  std::int64_t month_done_ = 0;        ///< completed intervals so far

  // Completed raw intervals of the month, queryable by ascending rank.
  std::vector<RunningOrderStatistic> month_raw_stats_;  // per cluster
};

}  // namespace cebis::storage

#endif  // CEBIS_STORAGE_STORAGE_CONTROLLER_H
