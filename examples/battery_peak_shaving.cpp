// Battery peak shaving in ~60 lines of API use: put a battery behind
// the meter at every cluster, shave each cluster's grid draw toward a
// rolling demand target, and compare the tariff bill (wholesale-indexed
// energy + a monthly $/kW demand charge) with and without the battery.
//
// Shows the storage composition surface: a StorageSpec on an ordinary
// "price-aware" scenario, and RunResult::storage carrying the raw vs
// net-of-battery accounting.
//
// Usage: battery_peak_shaving [seed]

#include <cstdio>
#include <cstdlib>

#include "core/experiment.h"
#include "storage/battery.h"

int main(int argc, char** argv) {
  using namespace cebis;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2009;

  std::printf("Building fixture (24-day trace; prices materialize lazily)...\n");
  const core::Fixture fixture = core::Fixture::make(seed);

  core::ScenarioSpec spec{
      .router = "price-aware",
      .config = core::PriceAwareConfig{.distance_threshold = Km{1500.0}},
      .energy = energy::google_params(),
      .workload = core::WorkloadKind::kTrace24Day,
      .enforce_p95 = true,
  };
  core::StorageSpec storage;
  storage.policy = "peak-shaving";
  // Clamp each cluster to a slow (3-day) rolling mean of its own load:
  // routed cluster profiles are nearly flat, so the mean itself is the
  // right demand target.
  storage.policy_config = storage::PeakShavingConfig{.window_hours = 72.0};
  storage.tariff.demand_usd_per_kw_month = Usd{12.0};
  spec.storage = storage;

  // Zero-capacity run: raw == net, and its per-cluster energies size the
  // batteries (a 6-hour battery per cluster, arriving half charged).
  const core::RunResult zero = core::run_scenario(fixture, spec);
  const double hours = static_cast<double>(trace_period().hours());
  for (std::size_t c = 0; c < fixture.clusters.size(); ++c) {
    storage::BatteryParams battery = storage::battery_for_mean_load(
        zero.cluster_energy[c] / hours, 6.0);
    battery.initial_soc_fraction = 0.5;
    spec.storage->per_cluster.push_back(battery);
  }
  const core::RunResult shaved = core::run_scenario(fixture, spec);

  std::printf("\n24-day bill under wholesale-indexed energy + $12/kW-month demand:\n");
  std::printf("  %-28s energy $%8.0f  demand $%8.0f  total $%8.0f\n",
              "no battery", zero.storage.net_energy.value(),
              zero.storage.net_demand.value(),
              zero.storage.net_total().value());
  std::printf("  %-28s energy $%8.0f  demand $%8.0f  total $%8.0f\n",
              "peak-shaving (6h battery)", shaved.storage.net_energy.value(),
              shaved.storage.net_demand.value(),
              shaved.storage.net_total().value());
  const double saved = zero.storage.net_total().value() -
                       shaved.storage.net_total().value();
  std::printf("  saved $%.0f (%.2f%%), %.1f MWh served from batteries\n",
              saved, 100.0 * saved / zero.storage.net_total().value(),
              shaved.storage.discharged_mwh);

  std::printf("\nPer-cluster bills (raw -> net of battery):\n");
  for (std::size_t c = 0; c < fixture.clusters.size(); ++c) {
    std::printf("  %-4s $%7.0f -> $%7.0f\n",
                std::string(fixture.clusters[c].label).c_str(),
                shaved.storage.cluster_raw_usd[c],
                shaved.storage.cluster_net_usd[c]);
  }
  return 0;
}
