// Extension: battery-backed energy storage under a demand-charge tariff
// (beyond the paper: the paper shifts load in *space*; a battery shifts
// it in *time* - Urgaonkar et al. arXiv:1103.3099 for the online
// charge/discharge policy, Xu & Li arXiv:1307.5442 for why peak-kW
// demand charges change the objective).
//
// Runs the 24-day trace with price-aware routing and a battery behind
// the meter at every cluster, sweeping the three built-in policies and
// battery sizes, and compares each cell's tariff bill against the
// zero-battery baseline of the identical scenario.

#include <string_view>
#include <vector>

#include "bench_common.h"
#include "storage/storage_controller.h"

int main(int argc, char** argv) {
  using namespace cebis;
  const std::uint64_t seed = bench::seed_from_args(argc, argv);
  bench::header("Extension: battery arbitrage & peak shaving",
                "24-day trace, google-like elasticity, 1500 km threshold, "
                "wholesale-indexed energy + $12/kW-month demand charge");

  const core::Fixture& fx = bench::fixture(seed);
  core::ScenarioSpec spec{
      .router = "price-aware",
      .config = core::PriceAwareConfig{.distance_threshold = Km{1500.0}},
      .energy = energy::google_params(),
      .workload = core::WorkloadKind::kTrace24Day,
      .enforce_p95 = true,
  };
  core::StorageSpec st;
  st.tariff.demand_usd_per_kw_month = Usd{12.0};
  spec.storage = st;

  // The zero-battery reference (raw == net) also yields the mean loads
  // the per-cluster batteries are sized from.
  const core::RunResult zero = core::run_scenario(fx, spec);
  const double hours = static_cast<double>(trace_period().hours());
  const double raw_bill = zero.storage.net_total().value();
  std::printf("no-battery bill: $%.0f  (energy $%.0f + demand $%.0f)\n\n",
              raw_bill, zero.storage.net_energy.value(),
              zero.storage.net_demand.value());

  io::Table table({"policy", "battery", "energy $", "demand $", "total $",
                   "saved $", "saved %", "cycled MWh"});
  bench::TimedCsv csv(bench::csv_path("ext_battery_arbitrage"));
  csv.header({"policy", "hours_of_storage", "energy_usd", "demand_usd",
              "total_usd", "saved_usd", "saved_pct", "discharged_mwh"});

  const char* policies[] = {"arbitrage", "peak-shaving", "lyapunov"};
  for (const char* policy : policies) {
    for (const double storage_hours : {2.0, 4.0, 8.0}) {
      core::ScenarioSpec cell = spec;
      cell.storage->policy = policy;
      if (std::string_view(policy) == "peak-shaving") {
        // Routed cluster loads are nearly flat (peak ~1.13x mean), so
        // shave toward the slow rolling mean itself; batteries arrive
        // half charged so the first days' peaks are shavable too.
        cell.storage->policy_config =
            storage::PeakShavingConfig{.window_hours = 72.0};
      }
      for (std::size_t c = 0; c < fx.clusters.size(); ++c) {
        storage::BatteryParams battery = storage::battery_for_mean_load(
            zero.cluster_energy[c] / hours, storage_hours);
        if (std::string_view(policy) == "peak-shaving") {
          battery.initial_soc_fraction = 0.5;
        }
        cell.storage->per_cluster.push_back(battery);
      }
      const core::RunResult run = core::run_scenario(fx, cell);
      const auto& o = run.storage;
      const double saved = raw_bill - o.net_total().value();
      char b[8][32];
      std::snprintf(b[0], sizeof(b[0]), "%.0fh", storage_hours);
      std::snprintf(b[1], sizeof(b[1]), "%.0f", o.net_energy.value());
      std::snprintf(b[2], sizeof(b[2]), "%.0f", o.net_demand.value());
      std::snprintf(b[3], sizeof(b[3]), "%.0f", o.net_total().value());
      std::snprintf(b[4], sizeof(b[4]), "%.0f", saved);
      std::snprintf(b[5], sizeof(b[5]), "%.2f", 100.0 * saved / raw_bill);
      std::snprintf(b[6], sizeof(b[6]), "%.1f", o.discharged_mwh);
      table.add_row({policy, b[0], b[1], b[2], b[3], b[4], b[5], b[6]});
      csv.row({policy, io::format_number(storage_hours, 0),
               io::format_number(o.net_energy.value(), 2),
               io::format_number(o.net_demand.value(), 2),
               io::format_number(o.net_total().value(), 2),
               io::format_number(saved, 2),
               io::format_number(100.0 * saved / raw_bill, 3),
               io::format_number(o.discharged_mwh, 2)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading: arbitrage and the Lyapunov policy monetize the *temporal*\n"
      "price structure the router cannot reach (charging cheap night hours,\n"
      "serving load through spikes), while peak shaving attacks the demand\n"
      "charge itself; the peak guard throttles charging against the month's\n"
      "established billed-demand level (exact on hourly workloads, within a\n"
      "fraction of a percent on this 5-minute trace).\n");
  std::printf("CSV: %s\n", bench::csv_path("ext_battery_arbitrage").c_str());
  return 0;
}
