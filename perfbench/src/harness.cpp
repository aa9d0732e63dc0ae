#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/workload.h"
#include "spans.h"

namespace perfbench {

using namespace cebis;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double best(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void describe(const char* what, const std::vector<double>& seconds,
              double scale, const char* unit) {
  std::printf(
      "%s: n=%zu min %.4f p10 %.4f p25 %.4f median %.4f p75 %.4f max %.4f %s\n",
      what, seconds.size(), scale * quantile(seconds, 0.0),
      scale * quantile(seconds, 0.1), scale * quantile(seconds, 0.25),
      scale * quantile(seconds, 0.5), scale * quantile(seconds, 0.75),
      scale * quantile(seconds, 1.0), unit);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " was not measured (no sample)");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
  std::printf("metric %-34s %16.6f %s\n", name.c_str(), value, unit.c_str());
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("FAILED: %s\n", what.c_str());
    std::fflush(stdout);
  }
}

double Report::ok_frac() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(attempted_ - failed_) /
                               static_cast<double>(attempted_);
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += (failed_ == 0 && attempted_ > 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

const std::vector<LayerMetric>& layer_catalogue() {
  static const std::vector<LayerMetric> catalogue = {
      {"core.route_us", "us"},
      {"core.plan_rebuilds_per_step", "count"},
      {"core.step_self_us", "us"},
      {"core.batch_step_us", "us"},
      {"core.sweep_plan_ms", "ms"},
      {"core.pool_idle_frac", "ratio"},
      {"market.fixture_make_s", "s"},
      {"market.cover_hourly_s", "s"},
      {"market.cover_5min_s", "s"},
      {"market.tick_us", "us"},
      {"market.assemble_ms", "ms"},
      {"service.advance_p50_us", "us"},
      {"service.advance_p90_us", "us"},
      {"service.finish_ms", "ms"},
      {"service.log_write_us_per_frame", "us"},
      {"service.log_bytes_per_step", "B"},
      {"service.log_frames_per_step", "count"},
      {"service.log_read_us_per_frame", "us"},
      {"service.read_session_ms", "ms"},
      {"service.replay_run_ms", "ms"},
      {"storage.on_step_us", "us"},
      {"net.server_start_ms", "ms"},
      {"net.server_stop_ms", "ms"},
      {"net.frame_write_us", "us"},
      {"net.frames_per_step", "count"},
      {"net.dropped_frames_per_step", "count"},
      {"net.protocol_errors", "count"},
      {"net.feed_connections", "count"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return catalogue;
}

void LayerValues::set(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

void LayerValues::emit(Report& report, const std::string& workload) const {
  std::string bypassed;
  for (const LayerMetric& m : layer_catalogue()) {
    double value = 0.0;
    bool found = false;
    for (const auto& [n, v] : values_) {
      if (n == m.name) {
        value = v;
        found = true;
      }
    }
    if (!found) bypassed += std::string(" ") + m.name;
    report.metric(m.name, value, m.unit);
  }
  if (!bypassed.empty()) {
    std::printf("layers not exercised by the %s workload (reported as 0):%s\n",
                workload.c_str(), bypassed.c_str());
  }
}

double best_seconds(int times, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int i = 0; i < times; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(seconds_since(t0));
  }
  return best(samples);
}

service::LiveConfig live_config(const core::Fixture& fixture, bool small) {
  service::LiveConfig config;
  config.router = "price-aware";
  const Period trace = fixture.trace.period();
  config.period =
      small ? Period{trace.begin, trace.begin + 24} : trace;
  config.steps_per_hour = 12;
  config.samples_per_hour = 12;
  config.delay_hours = 1;
  config.shadow_baseline = true;

  core::StorageSpec storage;
  storage.battery.capacity = MegawattHours{1.0};
  storage.battery.max_charge = Watts{400'000.0};
  storage.battery.max_discharge = Watts{400'000.0};
  storage.battery.round_trip_efficiency = 0.9;
  storage.policy = "lyapunov";
  storage.tariff.demand_usd_per_kw_month = Usd{12.0};
  config.storage = storage;
  return config;
}

LiveInputs make_live_inputs(const core::Fixture& fixture, bool small) {
  LiveInputs in;
  in.config = live_config(fixture, small);
  const service::LiveConfig& cfg = in.config;
  const int sph = cfg.samples_per_hour;
  const Period priced{cfg.period.begin - cfg.delay_hours, cfg.period.end};
  const market::PriceSet& prices = fixture.prices_covering(priced, sph);

  // Ticks go to the hubs the session tracks, in its own order.
  const service::LiveEngine probe(fixture, cfg);
  for (const HubId hub : probe.tracked_hubs()) {
    if (std::find(in.hubs.begin(), in.hubs.end(), hub) == in.hubs.end()) {
      in.hubs.push_back(hub);
    }
  }
  in.meta = probe.meta();
  const std::int64_t first_interval = priced.begin * sph;
  in.intervals = priced.hours() * sph;
  in.ticks.reserve(static_cast<std::size_t>(in.intervals) * in.hubs.size());
  for (std::int64_t i = 0; i < in.intervals; ++i) {
    const std::int64_t interval = first_interval + i;
    const HourIndex hour = interval / sph;
    const int sub = static_cast<int>(interval - hour * sph);
    for (const HubId hub : in.hubs) {
      in.ticks.push_back({hub, interval, prices.rt_at(hub, hour, sub).value()});
    }
  }

  const core::TraceWorkload demand(fixture.trace, fixture.allocation);
  const std::int64_t steps = cfg.period.hours() * cfg.steps_per_hour;
  std::vector<double> row(demand.state_count(), 0.0);
  in.steps.reserve(static_cast<std::size_t>(steps));
  for (std::int64_t j = 0; j < steps; ++j) {
    demand.demand(j, row);
    in.steps.push_back({j, row});
  }
  return in;
}

Setups timed_setups(std::uint64_t seed,
                    const std::function<void(const core::Fixture&)>& cover,
                    SpanLog* spans, const char* cover_span,
                    const std::function<double(const core::Fixture&)>& extra) {
  Setups out;
  for (int i = 0; i < kSetups; ++i) {
    out.fixture.reset();
    {
      const SpanLog::Scope span = maybe_open(spans, "market.fixture_make");
      const Clock::time_point t0 = Clock::now();
      out.fixture = std::make_unique<core::Fixture>(core::Fixture::make(seed));
      out.make_s.push_back(seconds_since(t0));
    }
    {
      const SpanLog::Scope span = maybe_open(spans, cover_span);
      const Clock::time_point t0 = Clock::now();
      cover(*out.fixture);
      out.cover_s.push_back(seconds_since(t0));
    }
    const double more = extra ? extra(*out.fixture) : 0.0;
    out.total_s.push_back(out.make_s.back() + out.cover_s.back() + more);
  }
  return out;
}

std::string join_path(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir == ".") return name;
  return dir + "/" + name;
}

}  // namespace perfbench
