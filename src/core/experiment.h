#ifndef CEBIS_CORE_EXPERIMENT_H
#define CEBIS_CORE_EXPERIMENT_H

// One-stop experiment fixture and the scenario runner. Benches and
// integration tests build a Fixture once (a lazily materialized price
// history for the study period, the 24-day trace, the baseline
// allocation, clusters and distance model), describe each run as a
// ScenarioSpec (router name + config variant + workload + constraints,
// see core/scenario.h), and execute them - singly via run_scenario or
// as a batched sweep via run_scenarios, which reuses engines and
// workloads across scenarios that share a (clusters, prices,
// constraints, energy) key.
//
// Sweeps run their cells CONCURRENTLY (SweepOptions::threads, default
// hardware_concurrency). run_scenarios is structured as a deterministic
// serial plan phase - price prepass, cheapest-cluster resolution,
// workload/engine/router construction, everything that can touch the
// fixture's lazily materialized shared state - followed by a fan-out
// phase in which every cell only reads immutable inputs and writes its
// own pre-sized result slot, so results are byte-identical to
// threads = 1 regardless of scheduling. Cells carrying caller-supplied
// std::function state (observers, capacity_factor/pue_of hooks) are
// never handed to worker threads: they execute on the calling thread,
// in spec order, because the runner cannot prove caller code is
// thread-safe.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/savings.h"
#include "core/scenario.h"
#include "core/simulation.h"
#include "market/lazy_price_history.h"
#include "market/market_simulator.h"
#include "traffic/trace_generator.h"

namespace cebis::core {

struct RouterEntry;

struct Fixture {
  std::uint64_t seed = 2009;

  /// Lazily materialized price history (see market/lazy_price_history.h).
  /// Access through prices()/prices_covering(), which materialize on
  /// demand; shared so Fixture copies stay cheap and consistent.
  std::shared_ptr<market::LazyPriceHistory> price_history;
  traffic::TrafficTrace trace;
  traffic::BaselineAllocation allocation;
  traffic::ClusterLoads baseline_loads;
  std::vector<Cluster> clusters;
  geo::DistanceModel distances;  ///< states x clusters
  traffic::SyntheticWorkload synthetic;

  /// Builds everything deterministically from one seed. The 24-day
  /// trace is generated eagerly; the 39-month price history is
  /// materialized on first use (window-invariant, so 24-day and
  /// 39-month scenarios see identical hours).
  [[nodiscard]] static Fixture make(std::uint64_t seed = 2009);

  /// The full study-period price set (materializes it on first call).
  [[nodiscard]] const market::PriceSet& prices() const {
    return price_history->full();
  }
  /// A price set covering at least `need` at the requested native
  /// interval (`samples_per_hour` must divide 60; 1 = hourly) - the
  /// lazy path scenario runs take; short windows avoid materializing
  /// the whole history, and each resolution is materialized (and grown)
  /// independently.
  [[nodiscard]] const market::PriceSet& prices_covering(
      Period need, int samples_per_hour = 1) const {
    return price_history->cover(need, samples_per_hour);
  }
  /// Replaces the price history with an explicit set (ablations).
  /// NOTE: the history is shared across Fixture copies, so pinning
  /// reaches every copy - use an independently made Fixture for an
  /// alternate market (as bench_ablation_spike_model does).
  void set_prices(market::PriceSet prices) {
    price_history->pin(std::move(prices));
    cheapest_memo->store(-1);  // the relocation target must re-derive
  }

  /// Index of the cluster whose hub has the lowest mean RT price over
  /// the study period (the static relocation target of §6.3). The index
  /// is *defined over the full study period* - the first call walks all
  /// 28464 study hours (via LazyPriceHistory::study_rt_means, which
  /// reduces them to per-hub means without retaining the 39-month set)
  /// - and is memoized, shared across Fixture copies like the history
  /// itself. The first call materializes lazily and must not race
  /// (run_scenarios resolves it in its serial plan phase); memoized
  /// reads are safe from any thread.
  [[nodiscard]] std::size_t cheapest_cluster() const;

  /// Memoized cheapest_cluster result (-1 = unresolved). Shared across
  /// copies - consistent with the shared price history the index is
  /// derived from - and reset by set_prices() (pinning swaps the
  /// market, so the relocation target must re-derive).
  std::shared_ptr<std::atomic<std::int64_t>> cheapest_memo =
      std::make_shared<std::atomic<std::int64_t>>(-1);
};

/// What a batched sweep actually constructed (the sweep contract: one
/// engine/workload per distinct scenario key, not one per scenario).
struct SweepStats {
  std::size_t engines_built = 0;
  std::size_t workloads_built = 0;
  std::size_t runs = 0;
  /// Resolved pool width the run phase used (1 = fully serial).
  int threads_used = 1;
  /// Cells eligible for worker threads vs pinned to the calling thread
  /// (caller-supplied observers / engine hooks; see SweepOptions).
  std::size_t parallel_cells = 0;
  std::size_t serial_cells = 0;

  /// Wall-clock per cell, indexed by spec position (ms), and the spec
  /// index of the slowest cell - parallel-sweep skew without a
  /// profiler. Timing only; results never depend on it.
  std::vector<double> cell_wall_ms;
  std::size_t slowest_cell = 0;

  /// Plan- and run-phase wall clock (the run phase includes pinned
  /// cells; with threads > 1 the pooled fan-out overlaps inside it).
  double plan_wall_ms = 0.0;
  double run_wall_ms = 0.0;
};

/// Execution knobs for run_scenarios' fan-out phase.
struct SweepOptions {
  /// Worker count for the run phase. 0 = hardware_concurrency; 1 runs
  /// every cell on the calling thread in spec order (the historical
  /// serial path - results are byte-identical either way, guarded in
  /// tests/test_scenario_api.cpp). Clamped to the parallel cell count.
  int threads = 0;

  /// Observability taps (obs::Taps) threaded through every engine the
  /// sweep builds (see EngineConfig::taps) plus sweep-level series:
  /// plan/cell spans, per-worker fan-out counters, the price history's
  /// materialized-hours gauges. Write-only - results stay byte-identical
  /// with or without them (tests/test_obs.cpp mirrors the parallel
  /// determinism guard with metrics on). Borrowed; null = uninstrumented.
  obs::Taps taps;
};

/// What a spec resolves to before an engine exists: its registered
/// router, the cluster set it runs on and the engine configuration. The
/// scenario runner, the live service and replay all build engines from
/// this one recipe, so a spec gets the same clusters, constraints and
/// delay on every path.
struct EngineRecipe {
  const RouterEntry* entry = nullptr;  ///< the spec's registry entry
  /// The entry's cluster override, else the fixture's clusters.
  std::vector<Cluster> clusters;
  /// The spec's energy model, delay and hooks; the 95/5 constraint is
  /// off when the router forces relaxed limits. Taps are left unset.
  EngineConfig config;
};

/// Resolves `spec` against the process-wide RouterRegistry (throws
/// std::invalid_argument for an unknown router).
[[nodiscard]] EngineRecipe engine_recipe(const Fixture& fixture,
                                         const ScenarioSpec& spec);

/// The price window a run of `spec` over `workload` reads: the workload
/// hours plus the front margin its routing delay reaches back, on the
/// spec's market resolution (see core::priced_window).
[[nodiscard]] Period priced_window_of(Period workload,
                                      const ScenarioSpec& spec);

/// Runs one scenario against the fixture.
[[nodiscard]] RunResult run_scenario(const Fixture& fixture,
                                     const ScenarioSpec& spec);

/// Runs a sweep, returning results in spec order. Workloads are built
/// once per distinct (kind, window) and engines once per distinct
/// (clusters, routing prices, constraints, delay, energy model) key;
/// scenarios carrying engine hooks (capacity_factor / pue_of) get a
/// private engine. Results are identical to calling run_scenario per
/// spec - cells run concurrently (SweepOptions::threads) but land in a
/// pre-sized vector indexed by spec position, and the plan phase
/// (construction, lazy price materialization) stays serial, so output
/// is independent of scheduling. A cell that throws mid-run stops the
/// distribution of unstarted cells and rethrows after every in-flight
/// cell completed (lowest throwing spec index wins). `stats`, when
/// given, reports what was constructed and how the phase was scheduled.
[[nodiscard]] std::vector<RunResult> run_scenarios(
    const Fixture& fixture, std::span<const ScenarioSpec> specs,
    const SweepOptions& options, SweepStats* stats = nullptr);

/// Same, with default options (parallel over hardware_concurrency).
[[nodiscard]] std::vector<RunResult> run_scenarios(
    const Fixture& fixture, std::span<const ScenarioSpec> specs,
    SweepStats* stats = nullptr);

/// Convenience: the spec's run compared against the "baseline" router
/// under the same energy model, workload and delay.
[[nodiscard]] SavingsReport scenario_savings(const Fixture& fixture,
                                             const ScenarioSpec& spec);

/// The hour window the spec's workload covers (the trace window, or the
/// synthetic replay window including any override). Settlement code
/// maps absolute hours to RunResult::hourly_energy rows with it.
[[nodiscard]] Period scenario_period(const Fixture& fixture,
                                     const ScenarioSpec& spec);

}  // namespace cebis::core

#endif  // CEBIS_CORE_EXPERIMENT_H
