#ifndef CEBIS_CORE_SCENARIO_H
#define CEBIS_CORE_SCENARIO_H

// Declarative scenario description. A ScenarioSpec names a registered
// router, carries its per-router configuration as a variant, and fixes
// the workload, constraints and energy model - one value object for one
// cell of the paper's {router} x {workload} x {constraint/delay/
// threshold} results matrix (§6). Extension mechanisms compose onto the
// same spec: a routing-objective override (carbon blend, weather-
// adjusted prices, forecasts), engine hooks (demand-response capacity
// shedding, weather-dependent PUE), and any number of StepObservers.
//
// Specs are plain copyable values; C++20 designated initializers give
// readable literals:
//
//   core::ScenarioSpec spec{
//       .router = "price-aware",
//       .config = core::PriceAwareConfig{.distance_threshold = Km{2500.0}},
//       .energy = energy::optimistic_future_params(),
//       .enforce_p95 = false,
//   };

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "billing/tariff.h"
#include "core/joint_router.h"
#include "core/price_aware_router.h"
#include "core/step_observer.h"
#include "energy/energy_model.h"
#include "storage/policy.h"

namespace cebis::market {
struct PriceSet;
}  // namespace cebis::market

namespace cebis::core {

/// Per-scenario energy-storage composition: a battery behind the meter
/// at every cluster, a charge/discharge policy from the PolicyRegistry,
/// and the tariff the (raw and net-of-battery) load is billed under.
/// When a spec carries one, the scenario runner attaches a
/// storage::StorageController to the run and folds its raw/net tariff
/// accounting into RunResult::storage.
struct StorageSpec {
  /// Battery applied to every cluster; zero capacity means "metering
  /// only" (raw == net), the natural no-battery baseline.
  storage::BatteryParams battery;
  /// Optional per-cluster override (size must match the cluster count
  /// when non-empty).
  std::vector<storage::BatteryParams> per_cluster;
  /// PolicyRegistry name: "arbitrage", "peak-shaving", "lyapunov", or
  /// any registered extension.
  std::string policy = "lyapunov";
  storage::PolicyConfig policy_config{};
  billing::TariffSchedule tariff;
  /// Under a demand-charge tariff, clamp charging so the net grid draw
  /// never exceeds the month's already-established peak power (charging
  /// must not create the very peaks the battery exists to shave).
  bool cap_charge_at_peak = true;
};

enum class WorkloadKind {
  kTrace24Day,       ///< 5-minute trace, 24 days (paper §6.2)
  kSynthetic39Month, ///< hourly synthetic workload, Jan 2006 - Mar 2009 (§6.3)
};

/// Per-router configuration. std::monostate means "router defaults";
/// a populated alternative must match the router named in the spec
/// (the registry factory throws on a mismatch).
using RouterConfig =
    std::variant<std::monostate, PriceAwareConfig, JointObjectiveConfig>;

struct ScenarioSpec {
  /// RouterRegistry name: "baseline", "price-aware", "closest",
  /// "static-cheapest", "joint-objective", or any registered extension.
  std::string router = "price-aware";
  RouterConfig config{};

  energy::EnergyModelParams energy;
  WorkloadKind workload = WorkloadKind::kTrace24Day;
  bool enforce_p95 = true;
  int delay_hours = 1;
  /// When > 0, routing reacts to the price `delay_steps` native market
  /// intervals ago instead of `delay_hours` hours ago (ROADMAP's price-
  /// freshness knob; see EngineConfig::delay_steps). With
  /// market_interval_minutes = 5, delay_steps = 1 reacts to the
  /// previous 5-minute settlement and delay_steps = 12 reproduces
  /// delay_hours = 1 byte-for-byte. 0 disables.
  int delay_steps = 0;

  /// Native interval of the market the scenario prices against, in
  /// minutes (must divide 60). 60 replays the paper's hourly real-time
  /// prices; 5 runs the true 5-minute settlement the RTOs publish
  /// (synthesized around the hourly hub data, see
  /// MarketSimulator::generate(period, samples_per_hour)). Billing,
  /// routing-price refreshes, demand metering and the storage peak
  /// guard all follow this interval; routing still reacts with
  /// `delay_hours` staleness (same sub-interval, previous hour).
  /// Intervals finer than a hub's real dispatch
  /// (HubInfo::rt_interval_minutes, 5 min for every RTO hub) get flat
  /// hours for that hub - the simulator never invents structure the
  /// market does not publish, so 1/2/3/4-minute requests degrade to
  /// hourly-flat by design. Ignored when `routing_prices` overrides the
  /// series - the override carries its own native interval.
  int market_interval_minutes = 60;

  /// For kSynthetic39Month only: replay window override (must lie inside
  /// the priced study period). Zero-length = the full study window.
  Period synthetic_window{0, 0};

  // --- per-scenario composition ---------------------------------------
  /// Routes on this series instead of the fixture's real prices (billing
  /// stays whatever the series says - attach a SecondaryMeter over the
  /// real prices to recover dollars). Must outlive the run.
  const market::PriceSet* routing_prices = nullptr;
  /// Engine hooks (see EngineConfig). Scenarios carrying hooks are not
  /// engine-cache-shareable in run_scenarios.
  std::function<double(std::size_t, HourIndex)> capacity_factor;
  std::function<double(std::size_t, HourIndex)> pue_of;
  /// Observers attached to this scenario's run, caller-owned, invoked in
  /// order.
  std::vector<StepObserver*> observers;
  /// Battery storage + tariff composition (see StorageSpec); composes
  /// with any router as one more observer on the run. Incompatible with
  /// `routing_prices` (the tariff meters the engine's billing price,
  /// which under an override is a synthetic objective, not dollars -
  /// run_scenarios throws).
  std::optional<StorageSpec> storage;
};

/// The spec's market resolution as samples per hour (1 = hourly,
/// 12 = five-minute). Throws std::invalid_argument when
/// market_interval_minutes does not divide the hour.
[[nodiscard]] inline int market_samples_per_hour(const ScenarioSpec& spec) {
  // divides_hour is symmetric in (m, 60/m): m divides 60 exactly when
  // it is itself a valid per-hour count.
  if (!divides_hour(spec.market_interval_minutes)) {
    throw std::invalid_argument(
        "ScenarioSpec: market_interval_minutes must divide 60");
  }
  return 60 / spec.market_interval_minutes;
}

/// The PriceAwareConfig inside `spec.config`: defaults when monostate,
/// throws std::invalid_argument when another alternative is populated.
[[nodiscard]] inline PriceAwareConfig price_aware_config_of(
    const ScenarioSpec& spec) {
  if (std::holds_alternative<std::monostate>(spec.config)) {
    return PriceAwareConfig{};
  }
  if (const auto* cfg = std::get_if<PriceAwareConfig>(&spec.config)) return *cfg;
  throw std::invalid_argument(
      "price_aware_config_of: spec carries a non-price-aware config");
}

}  // namespace cebis::core

#endif  // CEBIS_CORE_SCENARIO_H
