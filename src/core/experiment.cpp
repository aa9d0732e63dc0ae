#include "core/experiment.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/parallel.h"
#include "core/router_registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/descriptive.h"
#include "storage/storage_controller.h"

namespace cebis::core {

namespace {

std::vector<geo::LatLon> cluster_locations(const std::vector<Cluster>& clusters) {
  std::vector<geo::LatLon> out;
  out.reserve(clusters.size());
  for (const auto& c : clusters) out.push_back(c.location);
  return out;
}

/// The synthetic replay window for a spec: an explicit override, or the
/// study period with a 48h front margin so delayed routing (hour -
/// delay) stays inside the priced period.
Period synthetic_window_of(const ScenarioSpec& spec) {
  if (spec.synthetic_window.hours() > 0) return spec.synthetic_window;
  const Period study = study_period();
  return Period{study.begin + 48, study.end};
}

std::unique_ptr<Workload> make_workload(const Fixture& f, const ScenarioSpec& spec) {
  switch (spec.workload) {
    case WorkloadKind::kTrace24Day:
      return std::make_unique<TraceWorkload>(f.trace, f.allocation);
    case WorkloadKind::kSynthetic39Month:
      return std::make_unique<SyntheticWorkload39>(f.synthetic, f.allocation,
                                                   synthetic_window_of(spec));
  }
  throw std::invalid_argument("make_workload: bad kind");
}

/// Everything the engine construction depends on. Two scenarios with
/// equal keys (and no engine hooks) share one engine.
struct EngineKey {
  std::string cluster_tag;  ///< "" = fixture clusters; else the router name
  bool enforce_p95 = true;
  int delay_intervals = 0;  ///< resolved routing delay (native intervals)
  const market::PriceSet* routing_prices = nullptr;
  energy::EnergyModelParams energy;

  friend bool operator==(const EngineKey&, const EngineKey&) = default;
};

}  // namespace

Fixture Fixture::make(std::uint64_t seed) {
  traffic::TraceGenerator trace_gen(seed + 1);

  // Prices are materialized lazily (window-invariant generator): a
  // 24-day scenario only ever pays for the hours it replays, while the
  // first full-study request builds the whole 39-month history.
  auto history = std::make_shared<market::LazyPriceHistory>(seed);
  traffic::TrafficTrace trace = trace_gen.generate(trace_period());
  traffic::BaselineAllocation allocation(seed + 2);
  traffic::ClusterLoads loads = traffic::baseline_cluster_loads(trace, allocation);
  std::vector<Cluster> clusters = build_clusters(loads);
  geo::DistanceModel distances(geo::StateRegistry::instance().all(),
                               cluster_locations(clusters));
  traffic::SyntheticWorkload synthetic(trace);

  return Fixture{seed,
                 std::move(history),
                 std::move(trace),
                 std::move(allocation),
                 std::move(loads),
                 std::move(clusters),
                 std::move(distances),
                 std::move(synthetic)};
}

std::size_t Fixture::cheapest_cluster() const {
  // Memoized: the first call reduces the study period to per-hub means
  // (LazyPriceHistory::study_rt_means - the full 39-month set is never
  // retained on its behalf) and publishes the argmin; later calls are a
  // single atomic load, safe from any thread. The first call itself
  // materializes lazily and belongs in a serial section - run_scenarios
  // resolves it in the plan phase, before cells fan out.
  const std::int64_t memo = cheapest_memo->load(std::memory_order_acquire);
  if (memo >= 0) return static_cast<std::size_t>(memo);

  const std::vector<double>& means = price_history->study_rt_means();
  std::size_t best = 0;
  double best_mean = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    const double mean = means.at(clusters[c].hub.index());
    if (mean < best_mean) {
      best_mean = mean;
      best = c;
    }
  }
  cheapest_memo->store(static_cast<std::int64_t>(best),
                       std::memory_order_release);
  return best;
}

Period priced_window_of(Period workload, const ScenarioSpec& spec) {
  const int sph = market_samples_per_hour(spec);
  const int delay = delay_intervals(spec.delay_hours, spec.delay_steps, sph);
  return priced_window(workload, delay, sph);
}

EngineRecipe engine_recipe(const Fixture& fixture, const ScenarioSpec& spec) {
  EngineRecipe recipe;
  recipe.entry = &RouterRegistry::instance().at(spec.router);
  recipe.clusters = recipe.entry->clusters
                        ? recipe.entry->clusters(fixture, spec)
                        : fixture.clusters;
  recipe.config.energy = spec.energy;
  recipe.config.delay_hours = spec.delay_hours;
  recipe.config.delay_steps = spec.delay_steps;
  recipe.config.enforce_p95 =
      spec.enforce_p95 && !recipe.entry->forces_relaxed_p95;
  recipe.config.capacity_factor = spec.capacity_factor;
  recipe.config.pue_of = spec.pue_of;
  return recipe;
}

std::vector<RunResult> run_scenarios(const Fixture& fixture,
                                     std::span<const ScenarioSpec> specs,
                                     const SweepOptions& options,
                                     SweepStats* stats) {
  SweepStats local;
  std::vector<RunResult> out(specs.size());

  // Phase timing and spans are observation only: the clock reads never
  // feed a decision, so results are byte-identical with or without them.
  // cebis-lint: allow(wall-clock) feeds only SweepStats wall-ms telemetry, never a result field
  using sweep_clock = std::chrono::steady_clock;
  const auto ms_since = [](sweep_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(sweep_clock::now() - t0)
        .count();
  };
  const sweep_clock::time_point plan_t0 = sweep_clock::now();
  obs::Tracer::Span plan_span =
      obs::maybe_span(options.taps.tracer, "sweep/plan", "sweep");

  // Materialize the union of the fixture-priced windows up front - one
  // union window per requested market resolution - so every spec in the
  // sweep shares one PriceSet per resolution (maximal engine reuse) and
  // short sweeps never build the full 39-month history.
  std::map<int, const market::PriceSet*> fixture_prices;
  {
    std::map<int, Period> needs;
    for (const ScenarioSpec& spec : specs) {
      if (spec.routing_prices != nullptr) {
        if (spec.storage.has_value()) {
          // The StorageController meters StepView::billing_price, which
          // under a routing_prices override is a synthetic objective, so
          // the tariff bill (and the policies' price thresholds) would
          // not be dollars. Refuse up front - before any spec in the
          // sweep has burned engine time - rather than bill nonsense; a
          // real-dollar spot override on StorageSpec is the extension
          // point if this composition is ever needed.
          throw std::invalid_argument(
              "run_scenarios: ScenarioSpec::storage cannot compose with a "
              "routing_prices override (the tariff would be billed in "
              "objective units, not dollars)");
        }
        continue;
      }
      const int sph = market_samples_per_hour(spec);
      const Period w = priced_window_of(scenario_period(fixture, spec), spec);
      const auto [it, inserted] = needs.emplace(sph, w);
      if (!inserted) {
        it->second.begin = std::min(it->second.begin, w.begin);
        it->second.end = std::max(it->second.end, w.end);
      }
    }
    for (const auto& [sph, need] : needs) {
      fixture_prices[sph] = &fixture.prices_covering(need, sph);
    }
  }

  // --- Plan phase (serial, spec order) --------------------------------------
  //
  // Everything that can touch shared mutable state happens here:
  // workload/engine construction, router factories (static-cheapest and
  // the consolidated-cluster factory resolve Fixture::cheapest_cluster
  // at make-time, materializing study means lazily), observer wiring
  // decisions. After this phase every cell only reads immutable inputs.

  // Workloads shared per (kind, synthetic window); engines per EngineKey.
  std::map<std::pair<WorkloadKind, Period>, std::unique_ptr<Workload>> workloads;
  std::vector<std::pair<EngineKey, std::unique_ptr<SimulationEngine>>> engines;
  std::vector<std::unique_ptr<SimulationEngine>> private_engines;

  /// One planned sweep cell: the engine/workload it shares (or owns),
  /// its own router, and whether worker threads may run it.
  struct Cell {
    const ScenarioSpec* spec = nullptr;
    const SimulationEngine* engine = nullptr;
    const Workload* workload = nullptr;
    std::unique_ptr<Router> router;
    bool pool_safe = true;
  };
  std::vector<Cell> cells(specs.size());

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& spec = specs[i];
    EngineRecipe recipe = engine_recipe(fixture, spec);
    // Every engine in the sweep shares the caller's taps (the same
    // pointers sweep-wide, so tap identity never splits an EngineKey).
    recipe.config.taps = options.taps;
    // An explicit routing_prices override carries its own native
    // interval; fixture-priced specs bill on the resolution the
    // market_interval_minutes knob selects.
    const market::PriceSet& prices =
        spec.routing_prices != nullptr
            ? *spec.routing_prices
            : *fixture_prices.at(market_samples_per_hour(spec));

    const Period window = spec.workload == WorkloadKind::kSynthetic39Month
                              ? synthetic_window_of(spec)
                              : Period{0, 0};
    auto wit = workloads.find({spec.workload, window});
    if (wit == workloads.end()) {
      wit = workloads
                .emplace(std::make_pair(spec.workload, window),
                         make_workload(fixture, spec))
                .first;
      ++local.workloads_built;
    }

    auto make_engine = [&] {
      ++local.engines_built;
      return std::make_unique<SimulationEngine>(
          std::move(recipe.clusters), prices, fixture.distances, recipe.config);
    };

    // Engine hooks are opaque std::functions - scenarios carrying them
    // cannot prove key equality, so they get a private engine.
    SimulationEngine* engine = nullptr;
    if (spec.capacity_factor || spec.pue_of) {
      private_engines.push_back(make_engine());
      engine = private_engines.back().get();
    } else {
      const int delay = delay_intervals(spec.delay_hours, spec.delay_steps,
                                        prices.samples_per_hour);
      EngineKey key{recipe.entry->clusters ? spec.router : std::string{},
                    recipe.config.enforce_p95, delay, &prices, spec.energy};
      auto found = std::find_if(engines.begin(), engines.end(),
                                [&key](const auto& e) { return e.first == key; });
      if (found == engines.end()) {
        engines.emplace_back(std::move(key), make_engine());
        found = std::prev(engines.end());
      }
      engine = found->second.get();
    }

    Cell& cell = cells[i];
    cell.spec = &spec;
    cell.engine = engine;
    cell.workload = wit->second.get();
    cell.router = recipe.entry->make(fixture, spec);
    // Caller-supplied std::function state (observers, engine hooks) may
    // not be thread-safe; those cells stay on the calling thread. The
    // runner-owned StorageController is per-cell, so storage cells pool.
    cell.pool_safe =
        spec.observers.empty() && !spec.capacity_factor && !spec.pue_of;
  }

  plan_span.end();
  local.plan_wall_ms = ms_since(plan_t0);

  if (options.taps.metrics != nullptr) {
    obs::MetricsRegistry& metrics = *options.taps.metrics;
    // Gauges snapshot the shared lazy history's state as of this plan
    // phase; counters accumulate across sweeps.
    metrics
        .gauge("cebis_price_history_materialized_hours",
               "Hub-hours of price data the lazy history has materialized")
        .set(static_cast<double>(fixture.price_history->materialized_hours()));
    metrics
        .gauge("cebis_price_history_generations",
               "Price-set (re)generations incl. widenings and pinning")
        .set(static_cast<double>(fixture.price_history->generations()));
    metrics
        .counter("cebis_sweep_engines_built_total",
                 "Engines constructed by sweep plan phases")
        .add(static_cast<double>(local.engines_built));
    metrics
        .counter("cebis_sweep_workloads_built_total",
                 "Workloads constructed by sweep plan phases")
        .add(static_cast<double>(local.workloads_built));
    metrics
        .counter("cebis_sweep_cells_total", "Sweep cells executed")
        .add(static_cast<double>(specs.size()));
  }

  // --- Run phase (concurrent) -----------------------------------------------
  //
  // SimulationEngine::run is const with run-local buffers, so cells
  // sharing one engine are safe to run from multiple threads; each cell
  // owns its router, its observers list and its result slot.

  local.cell_wall_ms.assign(specs.size(), 0.0);
  auto run_cell = [&cells, &out, &options, &local, &ms_since](std::size_t i) {
    const sweep_clock::time_point cell_t0 = sweep_clock::now();
    obs::Tracer::Span cell_span = obs::maybe_span(
        options.taps.tracer, "sweep/cell", "sweep",
        {{"spec", std::to_string(i)}, {"router", cells[i].spec->router}});
    const Cell& cell = cells[i];
    const ScenarioSpec& spec = *cell.spec;
    if (spec.storage.has_value()) {
      // Battery storage composes as one more observer on the run; its
      // raw/net tariff accounting lands in RunResult::storage.
      storage::StorageController controller(*spec.storage, options.taps.metrics);
      std::vector<StepObserver*> observers = spec.observers;
      observers.push_back(&controller);
      out[i] = cell.engine->run(*cell.workload, *cell.router, observers);
    } else {
      out[i] = cell.engine->run(*cell.workload, *cell.router, spec.observers);
    }
    // Each cell owns its slot (spec-indexed, like `out`), so the
    // parallel fan-out writes race-free.
    local.cell_wall_ms[i] = ms_since(cell_t0);
  };

  std::vector<std::size_t> pooled;
  std::vector<std::size_t> pinned;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    (cells[i].pool_safe ? pooled : pinned).push_back(i);
  }
  local.parallel_cells = pooled.size();
  local.serial_cells = pinned.size();

  int threads = options.threads <= 0 ? default_thread_count() : options.threads;
  threads = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(std::max(threads, 1)),
      std::max<std::size_t>(pooled.size(), 1)));
  local.threads_used = threads;

  const sweep_clock::time_point run_t0 = sweep_clock::now();
  WorkerStats worker_stats;
  if (threads <= 1) {
    // The historical serial path, byte-for-byte: every cell in spec
    // order on the calling thread, first failure aborts the sweep.
    for (std::size_t i = 0; i < cells.size(); ++i) run_cell(i);
  } else {
    // Pinned cells first, in spec order, on the calling thread (their
    // observers may mutate caller state); a pinned failure skips the
    // fan-out. Then the pool covers the pure cells; `pooled` is sorted,
    // so parallel_for_index's lowest-index exception contract reports
    // the lowest throwing *spec* index.
    for (const std::size_t i : pinned) run_cell(i);
    parallel_for_index(
        static_cast<std::int64_t>(pooled.size()), threads,
        [&](std::int64_t j) { run_cell(pooled[static_cast<std::size_t>(j)]); },
        options.taps.metrics != nullptr ? &worker_stats : nullptr);
  }
  local.runs = specs.size();
  local.run_wall_ms = ms_since(run_t0);
  for (std::size_t i = 0; i < local.cell_wall_ms.size(); ++i) {
    if (local.cell_wall_ms[i] > local.cell_wall_ms[local.slowest_cell]) {
      local.slowest_cell = i;
    }
  }

  if (options.taps.metrics != nullptr && !worker_stats.cells.empty()) {
    // Per-worker fan-out balance: claimed cells, busy and idle seconds
    // (idle = waiting on the tail of the fan-out after the last claim).
    obs::MetricsRegistry& metrics = *options.taps.metrics;
    for (std::size_t w = 0; w < worker_stats.cells.size(); ++w) {
      const obs::Labels labels{{"worker", std::to_string(w)}};
      metrics
          .counter("cebis_sweep_worker_cells_total",
                   "Sweep cells claimed per pool worker", labels)
          .add(static_cast<double>(worker_stats.cells[w]));
      metrics
          .counter("cebis_sweep_worker_busy_seconds_total",
                   "Time pool workers spent inside cells", labels)
          .add(worker_stats.busy_ms[w] / 1e3);
      metrics
          .counter("cebis_sweep_worker_idle_seconds_total",
                   "Pool worker time not spent inside cells", labels)
          .add(std::max(0.0, worker_stats.wall_ms - worker_stats.busy_ms[w]) /
               1e3);
    }
  }

  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<RunResult> run_scenarios(const Fixture& fixture,
                                     std::span<const ScenarioSpec> specs,
                                     SweepStats* stats) {
  return run_scenarios(fixture, specs, SweepOptions{}, stats);
}

RunResult run_scenario(const Fixture& fixture, const ScenarioSpec& spec) {
  std::vector<RunResult> results =
      run_scenarios(fixture, {&spec, 1}, SweepOptions{.threads = 1});
  return std::move(results.front());
}

Period scenario_period(const Fixture& fixture, const ScenarioSpec& spec) {
  switch (spec.workload) {
    case WorkloadKind::kTrace24Day:
      return fixture.trace.period();
    case WorkloadKind::kSynthetic39Month:
      return synthetic_window_of(spec);
  }
  throw std::invalid_argument("scenario_period: bad kind");
}

SavingsReport scenario_savings(const Fixture& fixture, const ScenarioSpec& spec) {
  ScenarioSpec baseline = spec;
  baseline.router = "baseline";
  baseline.config = std::monostate{};
  baseline.routing_prices = nullptr;
  baseline.observers.clear();
  baseline.storage.reset();
  const ScenarioSpec pair[] = {std::move(baseline), spec};
  std::vector<RunResult> results = run_scenarios(fixture, pair);
  return compare(results[0], results[1]);
}

}  // namespace cebis::core
