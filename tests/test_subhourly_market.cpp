// First-class sub-hourly markets, end-to-end: the PriceSeries native
// interval, the MarketSimulator's calibrated sub-hourly synthesis
// (window-invariant like the hourly generator), the per-resolution
// LazyPriceHistory, the ScenarioSpec::market_interval_minutes knob, and
// the engine's interval-grained billing/routing price refreshes.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/experiment.h"
#include "core/observers.h"
#include "market/lazy_price_history.h"
#include "market/market_simulator.h"
#include "test_support.h"

namespace cebis::market {
namespace {

Period short_window() { return Period{study_period().begin + 48, study_period().begin + 96}; }

// --- PriceSeries native interval -------------------------------------------

TEST(PriceSeries, CarriesNativeInterval) {
  const Period p{0, 2};
  const PriceSeries hourly(p, {10.0, 20.0});
  EXPECT_EQ(hourly.samples_per_hour(), 1);
  EXPECT_EQ(hourly.at(1), 20.0);

  const PriceSeries quarter(p, 4, {1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(quarter.samples_per_hour(), 4);
  EXPECT_EQ(quarter.size(), 8u);
  EXPECT_EQ(quarter.at(0, 0), 1.0);
  EXPECT_EQ(quarter.at(1, 3), 8.0);
  // at(hour) is the hour mean of the native samples.
  EXPECT_NEAR(quarter.at(0), 2.5, test::kTightTol);
  EXPECT_NEAR(quarter.at(1), 6.5, test::kTightTol);
  // slice() keeps the native layout.
  EXPECT_EQ(quarter.slice(Period{1, 2}).size(), 4u);
  EXPECT_EQ(quarter.slice(Period{1, 2})[0], 5.0);

  EXPECT_THROW(PriceSeries(p, 4, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(PriceSeries(p, 0, {}), std::invalid_argument);
  EXPECT_THROW((void)quarter.at(0, 4), std::out_of_range);
  EXPECT_THROW((void)quarter.at(2, 0), std::out_of_range);
}

// --- MarketSimulator sub-hourly synthesis ----------------------------------

TEST(SubHourlyMarket, SubHourlySeriesAtTwelveIsFiveMinuteSeries) {
  // The generalized helper must reproduce the Fig 4/5 curve bit-for-bit
  // at the 5-minute calibration point.
  const MarketSimulator sim(test::kTestSeed);
  const PriceSet set = sim.generate(short_window());
  const HubId nyc = HubRegistry::instance().by_code("NYC");
  const auto legacy = sim.five_minute_series(nyc, set.rt[nyc.index()]);
  const auto general = sim.sub_hourly_series(nyc, set.rt[nyc.index()], 12);
  ASSERT_EQ(legacy.size(), general.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    ASSERT_EQ(legacy[i], general[i]) << i;
  }
}

TEST(SubHourlyMarket, GenerateKeepsHourlySeriesAndAddsStructure) {
  const MarketSimulator sim(test::kTestSeed);
  const Period w = short_window();
  const PriceSet hourly = sim.generate(w);
  const PriceSet fine = sim.generate(w, 12);
  EXPECT_EQ(fine.samples_per_hour, 12);
  const HubId nyc = HubRegistry::instance().by_code("NYC");
  ASSERT_EQ(fine.rt[nyc.index()].size(),
            hourly.rt[nyc.index()].size() * 12);
  // Hourly means of the native samples track the hourly settlement the
  // sub-hourly market is synthesized around (same calibration band as
  // the Fig 4 test).
  double err = 0.0;
  for (HourIndex h = w.begin; h < w.end; ++h) {
    err += std::abs(fine.rt_at(nyc, h).value() - hourly.rt_at(nyc, h).value()) /
           std::max(1.0, std::abs(hourly.rt_at(nyc, h).value()));
  }
  EXPECT_LT(err / static_cast<double>(w.hours()), 0.15);
  // Real intra-hour variation exists (this is a 5-min market, not a
  // replicated hourly one).
  double spread = 0.0;
  for (HourIndex h = w.begin; h < w.end; ++h) {
    double lo = fine.rt_at(nyc, h, 0).value();
    double hi = lo;
    for (int i = 1; i < 12; ++i) {
      lo = std::min(lo, fine.rt_at(nyc, h, i).value());
      hi = std::max(hi, fine.rt_at(nyc, h, i).value());
    }
    spread += hi - lo;
  }
  EXPECT_GT(spread / static_cast<double>(w.hours()), 0.5);
  // Day-ahead stays an hourly product.
  EXPECT_EQ(fine.da[nyc.index()].samples_per_hour(), 1);

  EXPECT_THROW((void)sim.generate(w, 7), std::invalid_argument);
}

TEST(SubHourlyMarket, GenerateIsWindowInvariant) {
  // Like the hourly generator, sub-hourly prices for an hour must not
  // depend on the requested window - the lazy history's widening
  // contract rests on this.
  const MarketSimulator sim(test::kTestSeed);
  const Period narrow = short_window();
  const Period wide{narrow.begin - 24, narrow.end + 48};
  const PriceSet a = sim.generate(narrow, 6);
  const PriceSet b = sim.generate(wide, 6);
  const HubId nyc = HubRegistry::instance().by_code("NYC");
  for (HourIndex h = narrow.begin; h < narrow.end; ++h) {
    for (int i = 0; i < 6; ++i) {
      ASSERT_EQ(a.rt_at(nyc, h, i).value(), b.rt_at(nyc, h, i).value())
          << h << ":" << i;
    }
  }
}

TEST(SubHourlyMarket, SubHourlyViewHonorsTheHubsNativeSettlement) {
  // Requesting finer sampling than the hub's market settles
  // (rt_interval_minutes, 5 min for every RTO hub) must yield flat
  // hours - no synthesized structure the real market never published.
  const MarketSimulator sim(test::kTestSeed);
  const PriceSet set = sim.generate(short_window());
  const HubId nyc = HubRegistry::instance().by_code("NYC");
  // 20 samples/hour = 3-minute intervals, finer than 5-minute dispatch.
  const PriceSeries flat = sim.sub_hourly_view(nyc, set.rt[nyc.index()], 20);
  ASSERT_EQ(flat.samples_per_hour(), 20);
  for (HourIndex h = short_window().begin; h < short_window().end; ++h) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_EQ(flat.at(h, i), set.rt[nyc.index()].at(h)) << h << ":" << i;
    }
  }
  // At 15 minutes (coarser than dispatch) structure is synthesized.
  const PriceSeries fine = sim.sub_hourly_view(nyc, set.rt[nyc.index()], 4);
  bool varies = false;
  for (HourIndex h = short_window().begin; h < short_window().end && !varies;
       ++h) {
    varies = fine.at(h, 0) != fine.at(h, 1);
  }
  EXPECT_TRUE(varies);
}

// --- LazyPriceHistory per resolution ---------------------------------------

TEST(SubHourlyMarket, LazyHistoryCachesPerResolution) {
  LazyPriceHistory history(test::kTestSeed);
  const Period w = short_window();
  const PriceSet& hourly = history.cover(w);
  const PriceSet& fine = history.cover(w, 12);
  EXPECT_EQ(hourly.samples_per_hour, 1);
  EXPECT_EQ(fine.samples_per_hour, 12);
  EXPECT_NE(&hourly, &fine);
  // Repeat requests reuse the materialized set per resolution.
  EXPECT_EQ(&history.cover(w, 12), &fine);
  EXPECT_EQ(&history.cover(w), &hourly);
  EXPECT_EQ(history.generations(), 2u);

  // Widening one resolution regenerates only that resolution, and the
  // widened set agrees with the narrow one on the overlap (stable
  // addresses: `fine` stays valid).
  const Period wider{w.begin, w.end + 24};
  const PriceSet& wide = history.cover(wider, 12);
  EXPECT_EQ(history.generations(), 3u);
  const HubId nyc = HubRegistry::instance().by_code("NYC");
  for (HourIndex h = w.begin; h < w.end; ++h) {
    for (int i = 0; i < 12; ++i) {
      ASSERT_EQ(wide.rt_at(nyc, h, i).value(), fine.rt_at(nyc, h, i).value());
    }
  }
  EXPECT_THROW((void)history.cover(w, 13), std::invalid_argument);
}

TEST(SubHourlyMarket, PinnedSubHourlyHistoryStillServesHourlyRequests) {
  // Pinning a 5-minute market must not break hourly consumers
  // (Fixture::prices() / full() hard-code samples_per_hour = 1): the
  // hourly view settles each hour to its mean, is cached, and other
  // resolutions derive from it.
  LazyPriceHistory history(test::kTestSeed);
  const Period w = short_window();
  history.pin(MarketSimulator(test::kTestSeed + 2).generate(w, 12));
  const PriceSet& pinned = history.cover(w, 12);
  ASSERT_EQ(pinned.samples_per_hour, 12);

  const PriceSet& hourly = history.full();
  EXPECT_EQ(hourly.samples_per_hour, 1);
  EXPECT_EQ(&history.cover(w), &hourly);  // cached
  const HubId nyc = HubRegistry::instance().by_code("NYC");
  for (HourIndex h = w.begin; h < w.end; ++h) {
    ASSERT_NEAR(hourly.rt_at(nyc, h).value(), pinned.rt_at(nyc, h).value(),
                test::kNumericTol);
  }
  // A third resolution derives too (from the hourly view).
  const PriceSet& quarter = history.cover(w, 4);
  EXPECT_EQ(quarter.samples_per_hour, 4);
  EXPECT_EQ(&history.cover(w, 4), &quarter);
}

TEST(SubHourlyMarket, PinnedHourlyHistoryDerivesSubHourlyViews) {
  LazyPriceHistory history(test::kTestSeed);
  const Period w = short_window();
  PriceSet pinned = MarketSimulator(test::kTestSeed + 1).generate(w);
  history.pin(std::move(pinned));
  const PriceSet& fine = history.cover(w, 12);
  EXPECT_EQ(fine.samples_per_hour, 12);
  EXPECT_EQ(&history.cover(w, 12), &fine);  // cached
  const HubId nyc = HubRegistry::instance().by_code("NYC");
  // The derived view wraps the pinned hourly settlement.
  double err = 0.0;
  for (HourIndex h = w.begin; h < w.end; ++h) {
    err += std::abs(fine.rt_at(nyc, h).value() -
                    history.cover(w).rt_at(nyc, h).value()) /
           std::max(1.0, history.cover(w).rt_at(nyc, h).value());
  }
  EXPECT_LT(err / static_cast<double>(w.hours()), 0.15);
}

}  // namespace
}  // namespace cebis::market

namespace cebis::core {
namespace {

class SubHourlyScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new Fixture(Fixture::make(test::kTestSeed));
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static Fixture* fixture_;
};

Fixture* SubHourlyScenarioTest::fixture_ = nullptr;

TEST_F(SubHourlyScenarioTest, KnobValidatesAndDefaultsHourly) {
  ScenarioSpec spec;
  EXPECT_EQ(market_samples_per_hour(spec), 1);
  spec.market_interval_minutes = 5;
  EXPECT_EQ(market_samples_per_hour(spec), 12);
  spec.market_interval_minutes = 15;
  EXPECT_EQ(market_samples_per_hour(spec), 4);
  spec.market_interval_minutes = 7;
  EXPECT_THROW((void)market_samples_per_hour(spec), std::invalid_argument);
  spec.market_interval_minutes = 0;
  EXPECT_THROW((void)market_samples_per_hour(spec), std::invalid_argument);
  spec.workload = WorkloadKind::kTrace24Day;
  EXPECT_THROW((void)run_scenario(*fixture_, spec), std::invalid_argument);
}

TEST_F(SubHourlyScenarioTest, FlatIntraHourMarketMatchesHourlyByteForByte) {
  // A sub-hourly market whose every sample equals the hourly settlement
  // must route and bill exactly like the hourly market: the engine's
  // interval refresh path is the identity when the intra-hour structure
  // is flat.
  ScenarioSpec spec{
      .router = "price-aware",
      .config = PriceAwareConfig{.distance_threshold = Km{1500.0}},
      .energy = energy::google_params(),
      .workload = WorkloadKind::kTrace24Day,
      .enforce_p95 = true,
  };
  const RunResult hourly = run_scenario(*fixture_, spec);

  const Period priced{trace_period().begin - spec.delay_hours,
                      trace_period().end};
  const market::PriceSet& base = fixture_->prices_covering(priced);
  market::PriceSet flat;
  flat.period = base.period;
  flat.samples_per_hour = 12;
  flat.da = base.da;
  flat.rt.resize(base.rt.size());
  for (std::size_t h = 0; h < base.rt.size(); ++h) {
    if (base.rt[h].empty()) continue;
    std::vector<double> values;
    values.reserve(base.rt[h].size() * 12);
    for (const double p : base.rt[h].values()) {
      values.insert(values.end(), 12, p);
    }
    flat.rt[h] = market::PriceSeries(base.period, 12, std::move(values));
  }
  ScenarioSpec five = spec;
  five.routing_prices = &flat;
  const RunResult replay = run_scenario(*fixture_, five);
  EXPECT_EQ(replay.total_cost.value(), hourly.total_cost.value());
  EXPECT_EQ(replay.total_energy.value(), hourly.total_energy.value());
  EXPECT_EQ(replay.mean_distance_km, hourly.mean_distance_km);
}

TEST_F(SubHourlyScenarioTest, FiveMinuteMarketRunsEveryFamilyDeterministically) {
  // The knob must compose with the existing scenario families: plain
  // price-aware on the trace, the hourly synthetic workload (billed at
  // the step-mean of the finer market), and a batched sweep mixing
  // resolutions - all deterministic and engine-cache sound.
  ScenarioSpec five{
      .router = "price-aware",
      .config = PriceAwareConfig{.distance_threshold = Km{1500.0}},
      .energy = energy::google_params(),
      .workload = WorkloadKind::kTrace24Day,
      .enforce_p95 = true,
  };
  five.market_interval_minutes = 5;
  const RunResult a = run_scenario(*fixture_, five);
  const RunResult b = run_scenario(*fixture_, five);
  EXPECT_EQ(a.total_cost.value(), b.total_cost.value());
  EXPECT_GT(a.total_cost.value(), 0.0);

  ScenarioSpec hourly = five;
  hourly.market_interval_minutes = 60;
  const RunResult h = run_scenario(*fixture_, hourly);
  // Five-minute settlement genuinely reprices the run.
  EXPECT_NE(a.total_cost.value(), h.total_cost.value());
  // Traffic served is invariant to the market resolution.
  EXPECT_NEAR(a.hit_hours, h.hit_hours, test::kSumTol);

  ScenarioSpec synth = five;
  synth.workload = WorkloadKind::kSynthetic39Month;
  synth.synthetic_window =
      Period{study_period().begin + 48, study_period().begin + 48 + 24 * 14};
  const RunResult s = run_scenario(*fixture_, synth);
  EXPECT_GT(s.total_cost.value(), 0.0);

  SweepStats stats;
  const ScenarioSpec sweep[] = {hourly, five, five};
  const auto runs = run_scenarios(*fixture_, sweep, &stats);
  // One engine per market resolution, shared across same-resolution
  // cells; results identical to the solo path.
  EXPECT_EQ(stats.engines_built, 2u);
  EXPECT_EQ(stats.workloads_built, 1u);
  EXPECT_EQ(runs[0].total_cost.value(), h.total_cost.value());
  EXPECT_EQ(runs[1].total_cost.value(), a.total_cost.value());
  EXPECT_EQ(runs[2].total_cost.value(), a.total_cost.value());
}

TEST_F(SubHourlyScenarioTest, NativeIntervalRecorderAgreesWithHourlyRecorder) {
  // HourlyEnergyRecorder(native_intervals=true) records one row per
  // price interval. Both mapping branches: steps finer than the meter
  // (5-minute trace on a 15-minute market - steps accumulate into their
  // containing row) and steps coarser than the meter (hourly synthetic
  // workload on a 5-minute market - each step spreads uniformly across
  // its rows). In both cases the native rows must re-aggregate to the
  // hourly recorder's rows and to the engine's per-cluster totals.
  struct Case {
    WorkloadKind workload;
    int interval_minutes;
  };
  for (const Case& c : {Case{WorkloadKind::kTrace24Day, 15},
                        Case{WorkloadKind::kSynthetic39Month, 5}}) {
    ScenarioSpec spec{
        .router = "price-aware",
        .config = PriceAwareConfig{.distance_threshold = Km{1500.0}},
        .energy = energy::google_params(),
        .workload = c.workload,
        .enforce_p95 = true,
    };
    spec.market_interval_minutes = c.interval_minutes;
    if (c.workload == WorkloadKind::kSynthetic39Month) {
      spec.synthetic_window =
          Period{study_period().begin + 48, study_period().begin + 48 + 72};
    }
    HourlyEnergyRecorder hourly;
    HourlyEnergyRecorder native(/*native_intervals=*/true);
    spec.observers = {&hourly, &native};
    const RunResult run = run_scenario(*fixture_, spec);

    const int psph = 60 / c.interval_minutes;
    ASSERT_EQ(native.energy().samples_per_hour(), psph);
    ASSERT_EQ(native.energy().rows(), hourly.energy().hours() *
                                          static_cast<std::size_t>(psph));
    double total = 0.0;
    for (std::size_t h = 0; h < hourly.energy().hours(); ++h) {
      for (std::size_t cl = 0; cl < hourly.energy().clusters(); ++cl) {
        double hour_sum = 0.0;
        for (int i = 0; i < psph; ++i) {
          hour_sum += native.energy().at(
              h * static_cast<std::size_t>(psph) + static_cast<std::size_t>(i),
              cl);
        }
        ASSERT_NEAR(hour_sum, hourly.energy().at(h, cl), test::kNumericTol)
            << c.interval_minutes << " hour " << h << " cluster " << cl;
        total += hour_sum;
      }
    }
    EXPECT_NEAR(total, run.total_energy.value(),
                run.total_energy.value() * 1e-9);
  }
}

TEST_F(SubHourlyScenarioTest, StorageRunsEndToEndAtFiveMinuteResolution) {
  // A price-aware scenario with storage at 5-minute market resolution,
  // metered and billed on the native interval, with the exact charge
  // guard keeping billed net demand at or below raw.
  ScenarioSpec spec{
      .router = "price-aware",
      .config = PriceAwareConfig{.distance_threshold = Km{1500.0}},
      .energy = energy::google_params(),
      .workload = WorkloadKind::kTrace24Day,
      .enforce_p95 = true,
  };
  spec.market_interval_minutes = 5;
  StorageSpec st;
  st.policy = "lyapunov";
  st.battery = storage::battery_for_mean_load(0.2, 4.0);
  st.tariff.demand_usd_per_kw_month = Usd{12.0};
  spec.storage = st;

  const RunResult run = run_scenario(*fixture_, spec);
  ASSERT_TRUE(run.storage.engaged);
  EXPECT_GT(run.storage.discharged_mwh, 0.0);
  EXPECT_LE(run.storage.net_demand.value(),
            run.storage.raw_demand.value() * (1.0 + 1e-12) + 1e-9);
  EXPECT_LT(run.storage.net_total().value(), run.storage.raw_total().value());

  const RunResult again = run_scenario(*fixture_, spec);
  EXPECT_EQ(run.storage.net_total().value(),
            again.storage.net_total().value());
  EXPECT_EQ(run.storage.charged_mwh, again.storage.charged_mwh);
}

}  // namespace
}  // namespace cebis::core
