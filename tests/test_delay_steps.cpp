// The ScenarioSpec::delay_steps price-freshness knob: routing reacts to
// the settlement `delay_steps` native market intervals back instead of
// `delay_hours` whole hours back. The identities pinned here:
//
//   delay_steps = samples_per_hour  ==  delay_hours = 1, byte-for-byte
//     (both read the same sub-interval of the previous hour)
//   delay_steps = 1                 !=  delay_hours = 1
//     (reacting to the previous 5-minute settlement genuinely reroutes)
//
// plus, on every market resolution, delay_hours = h == delay_steps =
// h * samples_per_hour for the whole RunResult (the engine resolves both
// knobs to one count of native intervals), the engine-level validation
// and the sweep runner's engine keys (runs with different resolved
// delays never share a cached engine; equal ones do).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/experiment.h"
#include "service/replay.h"
#include "test_support.h"

namespace cebis::core {
namespace {

class DelayStepsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new Fixture(Fixture::make(test::kTestSeed));
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static Fixture* fixture_;

  static ScenarioSpec five_minute_spec() {
    ScenarioSpec spec{
        .router = "price-aware",
        .config = PriceAwareConfig{.distance_threshold = Km{1500.0}},
        .energy = energy::google_params(),
        .workload = WorkloadKind::kTrace24Day,
        .enforce_p95 = true,
    };
    spec.market_interval_minutes = 5;
    return spec;
  }
};

Fixture* DelayStepsTest::fixture_ = nullptr;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST_F(DelayStepsTest, TwelveStepsAtFiveMinutesReproducesOneHourDelay) {
  ScenarioSpec hour_delay = five_minute_spec();
  hour_delay.delay_hours = 1;
  hour_delay.delay_steps = 0;

  ScenarioSpec step_delay = five_minute_spec();
  step_delay.delay_steps = 12;  // 12 x 5 min = the same one-hour lag

  const RunResult a = run_scenario(*fixture_, hour_delay);
  const RunResult b = run_scenario(*fixture_, step_delay);
  EXPECT_TRUE(same_bits(a.total_cost.value(), b.total_cost.value()))
      << a.total_cost.value() << " vs " << b.total_cost.value();
  EXPECT_TRUE(same_bits(a.total_energy.value(), b.total_energy.value()));
  ASSERT_EQ(a.cluster_cost.size(), b.cluster_cost.size());
  for (std::size_t c = 0; c < a.cluster_cost.size(); ++c) {
    EXPECT_TRUE(same_bits(a.cluster_cost[c], b.cluster_cost[c])) << c;
  }
  EXPECT_EQ(a.overflow_steps, b.overflow_steps);
}

TEST_F(DelayStepsTest, OneStepDelayGenuinelyReroutes) {
  // Fresher prices change the routing decisions (and with them the
  // bill) - the knob is not a no-op relabeling of delay_hours.
  ScenarioSpec hour_delay = five_minute_spec();
  ScenarioSpec fresh = five_minute_spec();
  fresh.delay_steps = 1;  // react to the previous 5-minute settlement

  const RunResult stale = run_scenario(*fixture_, hour_delay);
  const RunResult quick = run_scenario(*fixture_, fresh);
  EXPECT_NE(stale.total_cost.value(), quick.total_cost.value());
  // Traffic served is invariant to price freshness.
  EXPECT_NEAR(stale.hit_hours, quick.hit_hours, test::kSumTol);
}

TEST_F(DelayStepsTest, SweepKeysDelayStepsEnginesSeparately) {
  // run_scenarios must not hand a delay_steps=1 cell the cached engine
  // of the delay_hours cell (the engine bakes the delay into its
  // routing-price lookup).
  ScenarioSpec stale = five_minute_spec();
  ScenarioSpec fresh = five_minute_spec();
  fresh.delay_steps = 1;

  SweepStats stats;
  const ScenarioSpec sweep[] = {stale, fresh, fresh};
  const auto runs = run_scenarios(*fixture_, sweep, &stats);
  EXPECT_EQ(stats.engines_built, 2u);  // one per delay, shared within
  EXPECT_TRUE(same_bits(runs[0].total_cost.value(),
                        run_scenario(*fixture_, stale).total_cost.value()));
  EXPECT_TRUE(same_bits(runs[1].total_cost.value(),
                        runs[2].total_cost.value()));
  EXPECT_NE(runs[0].total_cost.value(), runs[1].total_cost.value());
}

TEST_F(DelayStepsTest, SweepSharesOneEngineForEqualResolvedDelays) {
  // delay_hours = 1 and delay_steps = 12 name the same routing delay on
  // the 5-minute market, so the sweep builds one engine for both.
  ScenarioSpec hour_delay = five_minute_spec();
  ScenarioSpec step_delay = five_minute_spec();
  step_delay.delay_steps = 12;

  SweepStats stats;
  const ScenarioSpec sweep[] = {hour_delay, step_delay};
  const auto runs = run_scenarios(*fixture_, sweep, &stats);
  EXPECT_EQ(stats.engines_built, 1u);
  EXPECT_EQ(service::diff_run_results(runs[0], runs[1]), "");
}

/// (market_interval_minutes, delay_hours, workload).
using DelayCase = std::tuple<int, int, WorkloadKind>;

class DelayKnobEquivalence : public DelayStepsTest,
                             public ::testing::WithParamInterface<DelayCase> {};

TEST_P(DelayKnobEquivalence, HourDelayEqualsItsIntervalCount) {
  const auto [minutes, hours, workload] = GetParam();
  ScenarioSpec by_hours = five_minute_spec();
  by_hours.market_interval_minutes = minutes;
  by_hours.workload = workload;
  if (workload == WorkloadKind::kSynthetic39Month) {
    // Three weeks of hourly steps: coarser than a sub-hourly market, so
    // the engine takes the step-mean price path.
    const HourIndex begin = month_begin(30) + 197;
    by_hours.synthetic_window = Period{begin, begin + 24 * 21};
  }
  by_hours.delay_hours = hours;
  ScenarioSpec by_steps = by_hours;
  by_steps.delay_hours = 0;
  by_steps.delay_steps = hours * (60 / minutes);

  const RunResult a = run_scenario(*fixture_, by_hours);
  const RunResult b = run_scenario(*fixture_, by_steps);
  EXPECT_EQ(service::diff_run_results(a, b), "");
  EXPECT_GT(a.total_cost.value(), 0.0);
}

std::string delay_case_name(const ::testing::TestParamInfo<DelayCase>& info) {
  const auto [minutes, hours, workload] = info.param;
  return std::to_string(minutes) + "min_" + std::to_string(hours) + "h_" +
         (workload == WorkloadKind::kTrace24Day ? "trace" : "hourly");
}

INSTANTIATE_TEST_SUITE_P(
    MarketsAndDelays, DelayKnobEquivalence,
    ::testing::Values(DelayCase{60, 1, WorkloadKind::kTrace24Day},
                      DelayCase{60, 2, WorkloadKind::kTrace24Day},
                      DelayCase{15, 1, WorkloadKind::kTrace24Day},
                      DelayCase{15, 2, WorkloadKind::kTrace24Day},
                      DelayCase{5, 1, WorkloadKind::kTrace24Day},
                      DelayCase{5, 2, WorkloadKind::kTrace24Day},
                      DelayCase{5, 1, WorkloadKind::kSynthetic39Month},
                      DelayCase{5, 2, WorkloadKind::kSynthetic39Month}),
    delay_case_name);

TEST_F(DelayStepsTest, ValidatesTheConfiguration) {
  // Negative lag is meaningless.
  ScenarioSpec spec = five_minute_spec();
  spec.delay_steps = -1;
  EXPECT_THROW((void)run_scenario(*fixture_, spec), std::invalid_argument);
}

}  // namespace
}  // namespace cebis::core
