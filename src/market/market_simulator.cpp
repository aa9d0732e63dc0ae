#include "market/market_simulator.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "base/parallel.h"
#include "geo/latlon.h"

namespace cebis::market {

namespace {

// Sub-stream ids for seed derivation; keeping them distinct means adding
// draws to one component never shifts another's stream.
constexpr std::uint64_t kStreamNational = 1;
constexpr std::uint64_t kStreamRegional = 10;   // + rto
constexpr std::uint64_t kStreamRegionalFast = 30;  // + rto
constexpr std::uint64_t kStreamLocal = 100;     // + rto
constexpr std::uint64_t kStreamSpike = 300;     // + hub
constexpr std::uint64_t kStreamRtoEvent = 400;  // + rto
constexpr std::uint64_t kStreamDayAhead = 500;  // + hub
constexpr std::uint64_t kStreamFiveMin = 600;   // + hub
constexpr std::uint64_t kStreamMidC = 700;
constexpr std::uint64_t kStreamMicro = 800;  // + hub
constexpr std::uint64_t kStreamScarcity = 900;  // + rto

[[nodiscard]] double innovation_sigma(double stationary_sigma, double phi) {
  return stationary_sigma * std::sqrt(std::max(0.0, 1.0 - phi * phi));
}

/// Intra-hour AR(1) parameters time-rescaled from the 5-minute
/// calibration to `samples_per_hour` samples: one sample spans
/// k = 12 / samples_per_hour five-minute units, so persistence is
/// phi^k and the per-sample spike probability is the complement of k
/// spike-free units. At 12 samples per hour this is the calibration
/// itself (bit-for-bit, no pow round-trip).
struct SubHourlyParams {
  int samples_per_hour;
  double phi;
  double spike_rate;
  double inno;

  SubHourlyParams(const FiveMinParams& fm, int samples_per_hour)
      : samples_per_hour(samples_per_hour) {
    const double k = 12.0 / static_cast<double>(samples_per_hour);
    phi = samples_per_hour == 12 ? fm.phi : std::pow(fm.phi, k);
    spike_rate = samples_per_hour == 12
                     ? fm.spike_rate
                     : 1.0 - std::pow(1.0 - fm.spike_rate, k);
    inno = innovation_sigma(fm.sigma, phi);
  }
};

/// One hub's intra-hour AR(1) process: its stream and its state.
struct IntraHour {
  stats::Rng rng;
  double ar = 0.0;
};

/// Appends `samples_per_hour` intra-hour samples around each of
/// `hourly` to `out`, continuing the process `x`.
void emit_sub_hourly(std::span<const double> hourly,
                     const PriceModelParams& params, const SubHourlyParams& sub,
                     IntraHour& x, std::vector<double>& out) {
  const FiveMinParams& fm = params.five_min;
  for (const double hour_price : hourly) {
    for (int i = 0; i < sub.samples_per_hour; ++i) {
      x.ar = sub.phi * x.ar + x.rng.normal(0.0, sub.inno);
      double p = hour_price * std::exp(x.ar - fm.sigma * fm.sigma / 2.0);
      if (x.rng.bernoulli(sub.spike_rate)) {
        p += x.rng.pareto(fm.spike_scale, 1.8);
      }
      out.push_back(std::clamp(p, params.price_floor, params.price_cap));
    }
  }
}

/// Advances `x` over `samples` samples exactly as emit_sub_hourly would
/// (the normal, the spike bernoulli and the spike's one uniform),
/// without the exp, pow and clamp whose values a pre-window sample
/// would discard.
void burn_sub_hourly(const SubHourlyParams& sub, std::int64_t samples,
                     IntraHour& x) {
  for (std::int64_t s = 0; s < samples; ++s) {
    x.ar = sub.phi * x.ar + x.rng.normal(0.0, sub.inno);
    if (x.rng.bernoulli(sub.spike_rate)) (void)x.rng.uniform();
  }
}

/// Appends each hourly price `samples_per_hour` times: the shape of a
/// hub whose market settles no finer than the requested interval.
void append_flat_hours(std::span<const double> hourly, int samples_per_hour,
                       std::vector<double>& out) {
  for (const double hour_price : hourly) {
    out.insert(out.end(), static_cast<std::size_t>(samples_per_hour), hour_price);
  }
}

void expect_divides_hour(int samples_per_hour, const char* who) {
  if (!divides_hour(samples_per_hour)) {
    throw std::invalid_argument(std::string(who) +
                                ": samples_per_hour must divide 60");
  }
}

}  // namespace

MarketSimulator::MarketSimulator(const HubRegistry& hubs, PriceModelParams params,
                                 std::uint64_t seed)
    : hubs_(hubs), params_(std::move(params)), seed_(seed) {
  rto_chol_.resize(kRtoCount);
  rto_members_.resize(kRtoCount);
  for (Rto rto : market_rtos()) {
    const auto members = hubs_.hubs_in(rto);
    auto& ids = rto_members_[static_cast<std::size_t>(rto)];
    ids.assign(members.begin(), members.end());
    if (ids.empty()) continue;
    stats::Matrix dist(ids.size(), ids.size(), 0.0);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (std::size_t j = 0; j < ids.size(); ++j) {
        dist.at(i, j) =
            geo::haversine(hubs_.info(ids[i]).location, hubs_.info(ids[j]).location)
                .value();
      }
    }
    const stats::Matrix kernel =
        stats::exponential_kernel(dist, params_.lambda_for(rto), 1e-6);
    rto_chol_[static_cast<std::size_t>(rto)] = stats::cholesky(kernel);
  }
}

PriceSet MarketSimulator::generate(const Period& period) const {
  return generate(period, 1);
}

PriceSet MarketSimulator::generate(const Period& period,
                                   int samples_per_hour) const {
  expect_divides_hour(samples_per_hour, "MarketSimulator::generate");
  const Period study = study_period();
  if (period.begin < study.begin || period.end < period.begin) {
    throw std::invalid_argument("MarketSimulator::generate: period before study epoch");
  }

  // Retained outputs are allocated here, on the calling thread (worker
  // allocations would land in per-thread malloc arenas that outlive the
  // call); the tasks only append within capacity. Hubs whose market
  // settles at least as finely as the requested interval get an
  // intra-hour AR(1) stream; coarser hubs keep flat hours.
  const std::size_t hub_count = hubs_.size();
  const std::span<const HubId> hourly = hubs_.hourly_hubs();
  const auto n_out = static_cast<std::size_t>(period.hours());
  const bool sub_hourly = samples_per_hour > 1;
  std::vector<std::vector<double>> rt(hub_count);
  std::vector<std::vector<double>> da(hub_count);
  std::vector<std::vector<double>> fine(hub_count);
  std::vector<std::optional<IntraHour>> intra(hub_count);
  for (HubId id : hourly) {
    rt[id.index()].reserve(n_out);
    da[id.index()].reserve(n_out);
    if (!sub_hourly) continue;
    fine[id.index()].reserve(n_out * static_cast<std::size_t>(samples_per_hour));
    if (60 / samples_per_hour >= hubs_.info(id).rt_interval_minutes) {
      intra[id.index()] = IntraHour{stats::Rng(seed_).split(kStreamFiveMin + id.index())};
    }
  }

  // One fan-out over the independent streams: a task per market RTO
  // (hourly RT + DA of its hubs; every hourly hub belongs to a market
  // RTO), then, at sub-hourly resolution, a task per hub that burns its
  // intra-hour stream in up to the window. Each task owns its streams
  // and draws them in epoch order, so the bytes do not depend on the
  // pool width.
  const SubHourlyParams sub(params_.five_min, samples_per_hour);
  const std::span<const Rto> rtos = market_rtos();
  const auto n_rto = static_cast<std::int64_t>(rtos.size());
  const std::int64_t burn_in = (period.begin - study.begin) * samples_per_hour;
  parallel_for_index(
      n_rto + (sub_hourly ? static_cast<std::int64_t>(hourly.size()) : 0),
      default_thread_count(), [&](std::int64_t i) {
        if (i < n_rto) {
          generate_rto(rtos[static_cast<std::size_t>(i)], period, rt, da);
          return;
        }
        const std::size_t h = hourly[static_cast<std::size_t>(i - n_rto)].index();
        if (!intra[h]) return;
        // Drawn on a local copy: neighbouring hubs' processes share
        // cache lines with this one's.
        IntraHour x = *intra[h];
        burn_sub_hourly(sub, burn_in, x);
        intra[h] = x;
      });

  PriceSet out;
  out.period = period;
  out.samples_per_hour = samples_per_hour;
  out.rt.resize(hub_count);
  out.da.resize(hub_count);
  if (sub_hourly) {
    // The short in-window pass: each hub's samples around its hourly
    // prices, which the RTO tasks above produced.
    parallel_for_index(
        static_cast<std::int64_t>(hourly.size()), default_thread_count(),
        [&](std::int64_t i) {
          const std::size_t h = hourly[static_cast<std::size_t>(i)].index();
          if (intra[h]) {
            IntraHour x = *intra[h];
            emit_sub_hourly(rt[h], params_, sub, x, fine[h]);
          } else {
            append_flat_hours(rt[h], samples_per_hour, fine[h]);
          }
        });
    rt = std::move(fine);
  }
  for (HubId id : hourly) {
    out.rt[id.index()] =
        PriceSeries(period, samples_per_hour, std::move(rt[id.index()]));
    out.da[id.index()] = HourlySeries(period, std::move(da[id.index()]));
  }
  return out;
}

void MarketSimulator::generate_rto(Rto rto, const Period& period,
                                   std::vector<std::vector<double>>& rt,
                                   std::vector<std::vector<double>>& da) const {
  const auto r = static_cast<std::size_t>(rto);
  const std::vector<HubId>& ids = rto_members_[r];
  if (ids.empty()) return;
  const stats::Matrix& chol = rto_chol_[r];
  const FactorParams& fp = params_.factors;
  const SpikeParams& sp = params_.spikes;
  const stats::Rng base(seed_);
  // The national factor is the one stream all RTOs read; every task
  // draws its own copy of it, so the tasks share nothing.
  stats::Rng rng_nat = base.split(kStreamNational);
  stats::Rng rng_reg = base.split(kStreamRegional + r);
  stats::Rng rng_reg_fast = base.split(kStreamRegionalFast + r);
  stats::Rng rng_loc = base.split(kStreamLocal + r);
  stats::Rng rng_evt = base.split(kStreamRtoEvent + r);
  stats::Rng rng_scarce = base.split(kStreamScarcity + r);

  // Per-hub state in rto_members_ order, which is hourly_hubs() order
  // restricted to this RTO: the scarcity decay below walks it, and an
  // onset and a decay in the same hour draw from the same RTO stream.
  struct HubState {
    HubId id;
    const HubInfo* info;
    stats::Rng spike_rng;
    stats::Rng da_rng;
    stats::Rng micro_rng;
    double local = 0.0;
    double spike = 0.0;
    double scarcity = 0.0;
    double var = 0.0;     // of the log-price's zero-mean normal terms
    double da_var = 0.0;  // of the day-ahead log-price's
  };
  std::vector<HubState> hubs;
  hubs.reserve(ids.size());
  for (HubId id : ids) {
    const HubInfo& hub = hubs_.info(id);
    const double bs2 = hub.beta_slow * hub.beta_slow;
    const double bf2 = hub.beta_fast * hub.beta_fast;
    hubs.push_back(HubState{
        .id = id,
        .info = &hub,
        .spike_rng = base.split(kStreamSpike + id.index()),
        .da_rng = base.split(kStreamDayAhead + id.index()),
        .micro_rng = base.split(kStreamMicro + id.index()),
        .var = bs2 * (fp.sigma_national * fp.sigma_national +
                      fp.sigma_regional * fp.sigma_regional) +
               bf2 * (fp.sigma_regional_fast * fp.sigma_regional_fast +
                      (fp.sigma_local * hub.vol_scale) * (fp.sigma_local * hub.vol_scale) +
                      (fp.micro_sigma * hub.vol_scale) * (fp.micro_sigma * hub.vol_scale)),
        .da_var = bs2 * (fp.sigma_national * fp.sigma_national +
                         fp.sigma_regional * fp.sigma_regional) +
                  params_.day_ahead.noise_sigma * params_.day_ahead.noise_sigma,
    });
  }

  // Factor state, initialized at the stationary distribution.
  double national = rng_nat.normal(0.0, fp.sigma_national);
  double regional = rng_reg.normal(0.0, fp.sigma_regional);
  double regional_fast = rng_reg_fast.normal(0.0, fp.sigma_regional_fast);
  std::vector<double> z(ids.size());
  std::vector<double> corr(ids.size());
  for (auto& v : z) v = rng_loc.normal();
  chol.mul(z, corr);
  for (std::size_t i = 0; i < hubs.size(); ++i) {
    hubs[i].local = corr[i] * fp.sigma_local * hubs[i].info->vol_scale;
  }

  // Day-ahead factor snapshot, refreshed at each (epoch) day boundary.
  double da_nat = national;
  double da_reg = regional;

  const double nat_inno = innovation_sigma(fp.sigma_national, fp.phi_national);
  const double reg_inno = innovation_sigma(fp.sigma_regional, fp.phi_regional);
  const double reg_fast_inno =
      innovation_sigma(fp.sigma_regional_fast, fp.phi_regional_fast);
  const double loc_inno_unit = std::sqrt(std::max(0.0, 1.0 - fp.phi_local * fp.phi_local));
  const double scarcity_rate = sp.scarcity_per_hour * params_.scarcity_scale_for(rto);

  const Period study = study_period();
  for (HourIndex t = study.begin; t < period.end; ++t) {
    // --- factor evolution --------------------------------------------
    national = fp.phi_national * national + rng_nat.normal(0.0, nat_inno);
    regional = fp.phi_regional * regional + rng_reg.normal(0.0, reg_inno);
    regional_fast =
        fp.phi_regional_fast * regional_fast + rng_reg_fast.normal(0.0, reg_fast_inno);
    for (auto& v : z) v = rng_loc.normal();
    chol.mul(z, corr);
    for (std::size_t i = 0; i < hubs.size(); ++i) {
      const double scale = fp.sigma_local * hubs[i].info->vol_scale;
      hubs[i].local = fp.phi_local * hubs[i].local + corr[i] * scale * loc_inno_unit;
    }

    if (hour_of_day(t) == 0) {
      da_nat = national;
      da_reg = regional;
    }

    // --- scarcity events (rare, sustained, near-cap) -------------------
    if (rng_scarce.bernoulli(scarcity_rate)) {
      const double mag = rng_scarce.uniform(sp.scarcity_lo, sp.scarcity_hi);
      for (HubState& h : hubs) {
        if (rng_scarce.bernoulli(0.9)) h.scarcity = mag * rng_scarce.uniform(0.8, 1.2);
      }
    }
    for (HubState& h : hubs) {
      if (h.scarcity != 0.0) {
        h.scarcity = rng_scarce.bernoulli(sp.scarcity_persist) ? h.scarcity * 0.9 : 0.0;
        if (h.scarcity < 1.0) h.scarcity = 0.0;
      }
    }

    // --- spikes -------------------------------------------------------
    if (rng_evt.bernoulli(sp.rto_event_per_hour)) {
      const double mag =
          std::min(rng_evt.pareto(sp.pareto_xm, sp.pareto_alpha), sp.magnitude_cap);
      for (HubState& h : hubs) {
        if (rng_evt.bernoulli(sp.rto_participation)) {
          h.spike += mag * rng_evt.uniform(0.7, 1.0) * h.info->spike_scale;
        }
      }
    }
    for (HubState& h : hubs) {
      if (h.spike != 0.0) {
        h.spike = h.spike_rng.bernoulli(sp.persist) ? h.spike * sp.decay : 0.0;
        if (std::abs(h.spike) < 1.0) h.spike = 0.0;
      }
      if (h.spike_rng.bernoulli(sp.onset_per_hour * h.info->spike_rate_scale)) {
        double mag = std::min(h.spike_rng.pareto(sp.pareto_xm, sp.pareto_alpha),
                              sp.magnitude_cap) *
                     h.info->spike_scale;
        if (h.spike_rng.bernoulli(sp.p_negative)) mag = -mag * sp.negative_scale;
        h.spike += mag;
      }
    }

    if (t < period.begin) {
      // Still consume the per-hub micro/DA draws so output is invariant
      // to the requested window.
      for (HubState& h : hubs) {
        (void)h.micro_rng.normal();
        (void)h.da_rng.normal();
      }
      continue;
    }

    // --- price assembly ------------------------------------------------
    for (HubState& h : hubs) {
      const HubInfo& hub = *h.info;
      const double shape = deterministic_shape(t, hub.utc_offset_hours, hub.rto);
      const double slow = hub.beta_slow * (national + regional);
      const double fast = hub.beta_fast * (regional_fast + h.local);
      const double micro =
          hub.beta_fast * h.micro_rng.normal(0.0, fp.micro_sigma * hub.vol_scale);
      // exp() of a zero-mean normal has mean exp(var/2); divide it out so
      // the hub's long-run level tracks base_price.
      const double level =
          hub.base_price * shape * std::exp(slow + fast + micro - h.var / 2.0);
      double price = level + h.spike + h.scarcity;
      price = std::clamp(price, params_.price_floor, params_.price_cap);
      rt[h.id.index()].push_back(price);

      // Day-ahead: previous-day factor snapshot, no spikes, mild noise.
      const double da_x = hub.beta_slow * (da_nat + da_reg);
      const double da_noise = h.da_rng.normal(0.0, params_.day_ahead.noise_sigma);
      double da_price = hub.base_price * shape * params_.day_ahead.premium *
                        std::exp(da_x + da_noise - h.da_var / 2.0);
      da_price = std::clamp(da_price, 0.0, params_.price_cap);
      da[h.id.index()].push_back(da_price);
    }
  }
}

std::vector<double> MarketSimulator::five_minute_series(
    HubId hub, const HourlySeries& hourly) const {
  return sub_hourly_series(hub, hourly, 12);
}

PriceSeries MarketSimulator::sub_hourly_view(HubId hub,
                                             const HourlySeries& hourly,
                                             int samples_per_hour) const {
  if (!hub.valid() || hub.index() >= hubs_.size()) {
    throw std::out_of_range("sub_hourly_view: bad hub");
  }
  expect_divides_hour(samples_per_hour, "sub_hourly_view");
  if (60 / samples_per_hour < hubs_.info(hub).rt_interval_minutes) {
    // The hub's market settles no finer than its native interval:
    // every sub-sample repeats the hourly settlement (same rule as
    // generate(period, samples_per_hour)).
    std::vector<double> flat;
    flat.reserve(hourly.size() * static_cast<std::size_t>(samples_per_hour));
    append_flat_hours(hourly.values(), samples_per_hour, flat);
    return PriceSeries(hourly.period(), samples_per_hour, std::move(flat));
  }
  return PriceSeries(hourly.period(), samples_per_hour,
                     sub_hourly_series(hub, hourly, samples_per_hour));
}

std::vector<double> MarketSimulator::sub_hourly_series(
    HubId hub, const HourlySeries& hourly, int samples_per_hour) const {
  if (!hub.valid() || hub.index() >= hubs_.size()) {
    throw std::out_of_range("sub_hourly_series: bad hub");
  }
  expect_divides_hour(samples_per_hour, "sub_hourly_series");
  if (hourly.samples_per_hour() != 1) {
    throw std::invalid_argument("sub_hourly_series: base series must be hourly");
  }
  const SubHourlyParams sub(params_.five_min, samples_per_hour);
  IntraHour x{stats::Rng(seed_).split(kStreamFiveMin + hub.index())};
  std::vector<double> out;
  out.reserve(hourly.size() * static_cast<std::size_t>(samples_per_hour));
  emit_sub_hourly(hourly.values(), params_, sub, x, out);
  return out;
}

DailySeries MarketSimulator::daily_day_ahead_peak(const PriceSet& prices,
                                                  HubId hub) const {
  if (!hub.valid() || hub.index() >= hubs_.size()) {
    throw std::out_of_range("daily_day_ahead_peak: bad hub");
  }
  const HubInfo& info = hubs_.info(hub);
  DailySeries out;
  out.first_day = day_index(prices.period.begin);
  if (info.hourly_market) {
    out.values = prices.da[hub.index()].daily_peak_averages(info.utc_offset_hours);
    return out;
  }

  // Northwest (MID-C): no hourly market. Daily hydro-driven process with
  // low volatility, seasonal runoff dips, no gas-price exposure.
  stats::Rng rng = stats::Rng(seed_).split(kStreamMidC);
  const std::int64_t days = prices.period.hours() / 24;
  out.values.reserve(static_cast<std::size_t>(days));
  double ar = rng.normal(0.0, 0.12);
  // Evolve from the study epoch so overlapping windows agree.
  const std::int64_t first_epoch_day = day_index(study_period().begin);
  for (std::int64_t d = first_epoch_day; d < out.first_day + days; ++d) {
    ar = 0.92 * ar + rng.normal(0.0, 0.12 * std::sqrt(1.0 - 0.92 * 0.92));
    if (d < out.first_day) continue;
    const HourIndex noon = d * 24 + 12;
    const int mi = month_index(noon);
    const double price =
        info.base_price * hydro_seasonal_curve(mi) * std::exp(ar - 0.12 * 0.12 / 2.0);
    out.values.push_back(std::max(price, 1.0));
  }
  return out;
}

}  // namespace cebis::market
