#ifndef CEBIS_CORE_STEP_OBSERVER_H
#define CEBIS_CORE_STEP_OBSERVER_H

// Per-step observation pipeline for the simulation engine. An observer
// sees every accounted interval of a run (hour, allocation, per-cluster
// energy, billing prices) and aggregates whatever a scenario needs on
// top of the primary dollar accounting: secondary meters (carbon
// kilograms, real dollars when the engine routes on a synthetic
// objective), per-hour energy recording for demand-response settlement,
// figure series capture. Observers compose - a scenario attaches any
// number of them to one run - and replace the former fixed-function
// hooks (EngineConfig::record_hourly, the secondary PriceSet pointer).

#include <cstdint>
#include <span>

#include "base/simtime.h"
#include "base/units.h"
#include "core/cluster.h"
#include "core/routing.h"

namespace cebis::core {

struct RunResult;

/// Static facts about one run, handed to observers at run begin: the
/// replayed period, the workload's accounting cadence and the native
/// interval of the billing prices. The two cadences are independent -
/// a 5-minute trace can bill hourly prices (the paper's setup) or
/// native 5-minute settlements (ScenarioSpec::market_interval_minutes),
/// and an hourly workload can bill a finer market at the step's mean
/// price. One of the two always divides the other (the engine rejects
/// non-nested combinations).
struct RunInfo {
  Period period;
  int steps_per_hour = 1;         ///< accounting steps per hour
  int price_samples_per_hour = 1; ///< native billing-price interval (1 = hourly)
};

/// Read-only view of one accounted simulation step.
struct StepView {
  HourIndex hour = 0;      ///< absolute hour containing this step
  std::int64_t step = 0;   ///< step index within the run, from 0
  Hours dt{0.0};           ///< step duration
  const Allocation& allocation;           ///< the router's assignment
  std::span<const double> energy_mwh;     ///< per-cluster energy this step
  std::span<const double> billing_price;  ///< concurrent $/MWh per cluster
};

/// Hook interface invoked by SimulationEngine::run. Observers are called
/// in the order they were passed: on_run_begin once before stepping,
/// on_step after each interval's accounting, on_run_end once after the
/// loop (where an observer may fold its aggregate into the RunResult).
/// The clusters span stays valid for the whole run.
class StepObserver {
 public:
  virtual ~StepObserver() = default;

  virtual void on_run_begin(const RunInfo& /*info*/,
                            std::span<const Cluster> /*clusters*/) {}
  virtual void on_step(const StepView& view) = 0;
  virtual void on_run_end(RunResult& /*result*/) {}
};

}  // namespace cebis::core

#endif  // CEBIS_CORE_STEP_OBSERVER_H
