#include "storage/storage_controller.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "billing/tariff.h"

namespace cebis::storage {

StorageController::StorageController(core::StorageSpec spec,
                                     obs::MetricsRegistry* metrics)
    : spec_(std::move(spec)), metrics_(metrics) {
  if (!PolicyRegistry::instance().contains(spec_.policy)) {
    throw std::invalid_argument("StorageController: unknown policy '" +
                                spec_.policy + "'");
  }
  // Validate battery parameters and the policy config eagerly so a bad
  // spec fails at construction, not mid-sweep - including begin()-time
  // checks like the Lyapunov band-vs-efficiency guard.
  (void)Battery(spec_.battery);
  make_policy(spec_.policy, spec_.policy_config)->begin(spec_.battery);
  for (const BatteryParams& p : spec_.per_cluster) {
    (void)Battery(p);
    make_policy(spec_.policy, spec_.policy_config)->begin(p);
  }
}

StorageController::~StorageController() = default;

void StorageController::begin_month(int month) {
  guard_month_ = month;
  month_done_ = 0;
  // The demand meter only sees the intervals the billing period covers:
  // a run starting (or ending) mid-month meters the clipped month, the
  // same split bill_interval_load applies.
  const HourIndex lo = std::max(month_begin(month), period_.begin);
  const HourIndex hi = std::min(month_end(month), period_.end);
  month_intervals_ = std::max<std::int64_t>(0, hi - lo) * meter_sph_;
  for (auto& stats : month_raw_stats_) stats.clear();
}

void StorageController::on_run_begin(const core::RunInfo& info,
                                     std::span<const core::Cluster> clusters) {
  const std::size_t n = clusters.size();
  if (!spec_.per_cluster.empty() && spec_.per_cluster.size() != n) {
    throw std::invalid_argument(
        "StorageController: per_cluster battery override does not match the "
        "cluster count");
  }
  if (info.steps_per_hour < 1 || info.price_samples_per_hour < 1 ||
      (info.price_samples_per_hour >= info.steps_per_hour
           ? info.price_samples_per_hour % info.steps_per_hour != 0
           : info.steps_per_hour % info.price_samples_per_hour != 0)) {
    throw std::invalid_argument(
        "StorageController: accounting steps and the metering interval must "
        "nest (one samples-per-hour must divide the other)");
  }
  period_ = info.period;
  steps_per_hour_ = info.steps_per_hour;
  meter_sph_ = info.price_samples_per_hour;
  steps_per_interval_ = std::max(1, steps_per_hour_ / meter_sph_);
  guard_peaks_ = spec_.tariff.demand_usd_per_kw_month.value() > 0.0;
  batteries_.clear();
  policies_.clear();
  for (std::size_t c = 0; c < n; ++c) {
    const BatteryParams& params =
        spec_.per_cluster.empty() ? spec_.battery : spec_.per_cluster[c];
    batteries_.emplace_back(params);
    policies_.push_back(make_policy(spec_.policy, spec_.policy_config));
    policies_.back()->begin(params);
  }
  const auto intervals =
      static_cast<std::size_t>(info.period.hours() * meter_sph_);
  raw_mwh_.assign(n, std::vector<double>(intervals, 0.0));
  net_mwh_.assign(n, std::vector<double>(intervals, 0.0));
  spot_.assign(n, std::vector<double>(intervals, 0.0));
  pending_mwh_.assign(n, 0.0);
  month_raw_stats_.assign(n, {});
  // Month state is anchored at the run's first hour - a run starting
  // mid-month meters exactly the intervals its billing period covers
  // (regression-tested for non-month-boundary starts).
  begin_month(month_index(info.period.begin));
  outcome_ = core::StorageOutcome{};
  if (metrics_ != nullptr) {
    // Resolved here - not at construction - so the handle binds to the
    // metric shard of whichever thread actually steps the run.
    m_guard_activations_ = metrics_->counter(
        "cebis_storage_guard_activations_total",
        "Charge-guard clamps that reduced a policy's charge request",
        {{"policy", spec_.policy}});
  }
}

double StorageController::raw_demand_floor(std::size_t cluster) {
  const std::int64_t n = month_intervals_;
  if (n <= 0) return 0.0;
  // R-7 rank over the month's full interval count, with the intervals
  // still to come taken as zero load. Zero-padding only underestimates
  // (loads are nonnegative), and the *lower* adjacent order statistic
  // is a lower bound on the interpolated percentile, so this floor can
  // only rise toward the month's final billed raw demand - capping net
  // intervals at max(raw, floor) therefore provably keeps the billed
  // net demand at or below raw, at any percentile and any resolution.
  const double rank =
      spec_.tariff.demand_percentile / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::int64_t>(std::floor(rank));
  const std::int64_t zeros = n - month_done_;
  if (lo < zeros) return 0.0;
  auto& stats = month_raw_stats_[cluster];
  const auto idx = static_cast<std::size_t>(lo - zeros);
  return idx < stats.size() ? stats.at(idx) : 0.0;
}

void StorageController::on_step(const core::StepView& view) {
  // Sum the step into the open metering interval; the battery acts once
  // the interval's last step is in, so its raw load is known. A step no
  // finer than the meter closes its intervals at once.
  for (std::size_t c = 0; c < batteries_.size(); ++c) {
    pending_mwh_[c] += view.energy_mwh[c];
  }
  const auto step_in_hour =
      static_cast<std::int64_t>(view.step % steps_per_hour_);
  if ((step_in_hour + 1) % steps_per_interval_ != 0) return;

  // The first metering row the decision covers (meter rows per hour
  // times completed hours, plus the row within the hour), and how many
  // whole intervals it covers.
  const std::int64_t row = (view.hour - period_.begin) * meter_sph_ +
                           step_in_hour * meter_sph_ / steps_per_hour_;
  const std::int64_t intervals = std::max(1, meter_sph_ / steps_per_hour_);
  const Hours dt = view.dt * static_cast<double>(steps_per_interval_);
  if (guard_peaks_) {
    const int month = month_index(view.hour);
    if (month != guard_month_) begin_month(month);
  }

  for (std::size_t c = 0; c < batteries_.size(); ++c) {
    const double load = std::exchange(pending_mwh_[c], 0.0);
    const double price = view.billing_price[c];

    PolicyContext ctx;
    ctx.hour = view.hour;
    ctx.dt = dt;
    ctx.price_usd_per_mwh = price;
    ctx.load_mwh = load;
    ctx.battery = &batteries_[c];
    const double intent = policies_[c]->decide(ctx);

    double grid = load;
    if (intent > 0.0) {
      double request = intent;
      if (guard_peaks_) {
        // The decision covers `intervals` complete intervals, each
        // carrying load / intervals. Cap charging so every interval's net
        // stays at or below max(raw, floor) - raw is known here, so
        // there is no future load within the interval to mispredict.
        const double floor_mwh = raw_demand_floor(c);
        request = std::min(
            request,
            std::max(0.0,
                     floor_mwh * static_cast<double>(intervals) - load));
        if (request < intent) m_guard_activations_.add();
      }
      grid += batteries_[c].charge(MegawattHours{request}, dt).value();
    } else if (intent < 0.0) {
      // Discharge serves local load only (no export to the grid).
      const double request = std::min(-intent, load);
      grid -= batteries_[c].discharge(MegawattHours{request}, dt).value();
    }

    // Demand (and the battery's grid action) is uniform within a step,
    // so a step coarser than the meter spreads evenly across its
    // intervals; the engine billed the step at its time-mean price,
    // which each interval inherits.
    const double raw_share = load / static_cast<double>(intervals);
    const double net_share = grid / static_cast<double>(intervals);
    for (std::int64_t i = 0; i < intervals; ++i) {
      raw_mwh_[c][static_cast<std::size_t>(row + i)] += raw_share;
      net_mwh_[c][static_cast<std::size_t>(row + i)] += net_share;
      spot_[c][static_cast<std::size_t>(row + i)] = price;
    }

    if (guard_peaks_) {
      // Fold the completed raw intervals into the month's measurement
      // (the floor for *later* decisions; this cluster's own cap above
      // read the pre-decision state).
      auto& stats = month_raw_stats_[c];
      for (std::int64_t i = 0; i < intervals; ++i) stats.insert(raw_share);
    }
  }
  if (guard_peaks_) month_done_ += intervals;
}

void StorageController::on_run_end(core::RunResult& result) {
  const std::size_t n = batteries_.size();
  outcome_.engaged = true;
  outcome_.cluster_raw_usd.assign(n, 0.0);
  outcome_.cluster_net_usd.assign(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    const billing::TariffBill raw = billing::bill_interval_load(
        spec_.tariff, period_, meter_sph_, raw_mwh_[c], spot_[c]);
    const billing::TariffBill net = billing::bill_interval_load(
        spec_.tariff, period_, meter_sph_, net_mwh_[c], spot_[c]);
    outcome_.raw_energy += raw.energy;
    outcome_.raw_demand += raw.demand;
    outcome_.net_energy += net.energy;
    outcome_.net_demand += net.demand;
    outcome_.cluster_raw_usd[c] = raw.total().value();
    outcome_.cluster_net_usd[c] = net.total().value();
    outcome_.charged_mwh += batteries_[c].total_charged().value();
    outcome_.discharged_mwh += batteries_[c].total_discharged().value();
    outcome_.loss_mwh += batteries_[c].conversion_loss().value();
    outcome_.final_soc_mwh += batteries_[c].soc().value();
  }
  result.storage = outcome_;
}

}  // namespace cebis::storage
