#include "core/observers.h"

namespace cebis::core {

void SecondaryMeter::on_run_begin(const RunInfo& /*info*/,
                                  std::span<const Cluster> clusters) {
  clusters_ = clusters;
  rate_.assign(clusters.size(), 0.0);
  per_cluster_.assign(clusters.size(), 0.0);
  have_hour_ = false;
  total_ = 0.0;
}

void SecondaryMeter::on_step(const StepView& view) {
  if (!have_hour_ || view.hour != cached_hour_) {
    cached_hour_ = view.hour;
    have_hour_ = true;
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      rate_[c] = series_.rt_at(clusters_[c].hub, view.hour).value();
    }
  }
  const std::size_t n = clusters_.size();
  for (std::size_t c = 0; c < n; ++c) {
    const double e = view.energy_mwh[c];
    if (e == 0.0) continue;  // suspended cluster (demand response)
    const double metered = rate_[c] * e;
    per_cluster_[c] += metered;
    total_ += metered;
  }
}

void HourlyEnergyRecorder::on_run_begin(const RunInfo& info,
                                        std::span<const Cluster> clusters) {
  begin_ = info.period.begin;
  steps_per_hour_ = info.steps_per_hour;
  rows_per_hour_ = native_intervals_ ? info.price_samples_per_hour : 1;
  energy_ = HourlyEnergy(static_cast<std::size_t>(info.period.hours()),
                         rows_per_hour_, clusters.size());
}

void HourlyEnergyRecorder::on_step(const StepView& view) {
  // Hourly rows by default; in native-interval mode the row is the price
  // interval containing the step (steps coarser than the meter spread
  // their energy uniformly across the covered rows).
  const auto hour_row = static_cast<std::size_t>(view.hour - begin_);
  const std::size_t n = energy_.clusters();
  if (rows_per_hour_ == 1) {
    for (std::size_t c = 0; c < n; ++c) {
      const double e = view.energy_mwh[c];
      if (e != 0.0) energy_.at(hour_row, c) += e;
    }
    return;
  }
  const auto step_in_hour =
      static_cast<std::size_t>(view.step % steps_per_hour_);
  if (steps_per_hour_ >= rows_per_hour_) {
    const std::size_t row =
        hour_row * static_cast<std::size_t>(rows_per_hour_) +
        step_in_hour * static_cast<std::size_t>(rows_per_hour_) /
            static_cast<std::size_t>(steps_per_hour_);
    for (std::size_t c = 0; c < n; ++c) {
      const double e = view.energy_mwh[c];
      if (e != 0.0) energy_.at(row, c) += e;
    }
  } else {
    const auto per_step =
        static_cast<std::size_t>(rows_per_hour_ / steps_per_hour_);
    const std::size_t row0 = hour_row * static_cast<std::size_t>(rows_per_hour_) +
                             step_in_hour * per_step;
    for (std::size_t c = 0; c < n; ++c) {
      const double e = view.energy_mwh[c];
      if (e == 0.0) continue;
      const double share = e / static_cast<double>(per_step);
      for (std::size_t i = 0; i < per_step; ++i) {
        energy_.at(row0 + i, c) += share;
      }
    }
  }
}

void HourlyEnergyRecorder::on_run_end(RunResult& result) {
  result.hourly_energy = energy_;
}

}  // namespace cebis::core
