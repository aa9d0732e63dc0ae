// Demand-charge tariff billing: energy components (flat and
// wholesale-indexed), the monthly peak-kW demand charge, percentile
// demand metering composing with the 95/5 billing idiom, calendar-month
// splitting, and input validation.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "billing/percentile_billing.h"
#include "billing/tariff.h"
#include "test_support.h"

namespace cebis::billing {
namespace {

TEST(Tariff, FlatEnergyOnly) {
  TariffSchedule t;
  t.index_to_wholesale = false;
  t.energy_adder = UsdPerMwh{40.0};
  const Period p{0, 4};
  const std::vector<double> mwh = {1.0, 2.0, 0.5, 0.0};
  const TariffBill bill = bill_interval_load(t, p, 1, mwh);
  EXPECT_NEAR(bill.energy.value(), 40.0 * 3.5, test::kNumericTol);
  EXPECT_DOUBLE_EQ(bill.demand.value(), 0.0);
  EXPECT_TRUE(bill.months.empty());
  EXPECT_NEAR(bill.total().value(), bill.energy.value(), test::kTightTol);
}

TEST(Tariff, WholesaleIndexedEnergyWithAdder) {
  TariffSchedule t;
  t.energy_adder = UsdPerMwh{5.0};
  const Period p{0, 3};
  const std::vector<double> mwh = {1.0, 1.0, 2.0};
  const std::vector<double> spot = {30.0, 50.0, 20.0};
  const TariffBill bill = bill_interval_load(t, p, 1, mwh, spot);
  EXPECT_NEAR(bill.energy.value(), 35.0 + 55.0 + 2.0 * 25.0, test::kNumericTol);
}

TEST(Tariff, DemandChargeBillsTheMonthlyPeak) {
  TariffSchedule t;
  t.index_to_wholesale = false;
  t.demand_usd_per_kw_month = Usd{10.0};
  // January 2006 has 744 hours; stay inside it.
  const Period p{0, 100};
  std::vector<double> mwh(100, 0.5);
  mwh[42] = 2.0;  // peak: 2 MWh in one hour = 2000 kW
  const TariffBill bill = bill_interval_load(t, p, 1, mwh);
  ASSERT_EQ(bill.months.size(), 1u);
  EXPECT_EQ(bill.months[0].month_index, 0);
  EXPECT_NEAR(bill.months[0].billed_kw, 2000.0, test::kNumericTol);
  EXPECT_NEAR(bill.demand.value(), 20000.0, test::kNumericTol);
  EXPECT_DOUBLE_EQ(bill.energy.value(), 0.0);
}

TEST(Tariff, DemandSplitsByCalendarMonth) {
  TariffSchedule t;
  t.index_to_wholesale = false;
  t.demand_usd_per_kw_month = Usd{1.0};
  // Straddle Jan|Feb 2006: Jan has 31 * 24 = 744 hours.
  const Period p{740, 752};
  std::vector<double> mwh(12, 1.0);
  mwh[2] = 3.0;   // still January (hour 742)
  mwh[10] = 2.0;  // February (hour 750)
  const TariffBill bill = bill_interval_load(t, p, 1, mwh);
  ASSERT_EQ(bill.months.size(), 2u);
  EXPECT_EQ(bill.months[0].month_index, 0);
  EXPECT_NEAR(bill.months[0].billed_kw, 3000.0, test::kNumericTol);
  EXPECT_EQ(bill.months[1].month_index, 1);
  EXPECT_NEAR(bill.months[1].billed_kw, 2000.0, test::kNumericTol);
  EXPECT_NEAR(bill.demand.value(), 5000.0, test::kNumericTol);
}

TEST(Tariff, PercentileDemandComposesWithBilledRateP95) {
  // A 95th-percentile demand meter must agree with the 95/5 billing
  // primitive applied to the month's hourly kW series.
  TariffSchedule t;
  t.index_to_wholesale = false;
  t.demand_usd_per_kw_month = Usd{1.0};
  t.demand_percentile = 95.0;
  const Period p{0, 500};
  stats::Rng rng = test::test_rng(55);
  std::vector<double> mwh;
  std::vector<double> kw;
  for (int i = 0; i < 500; ++i) {
    const double load = rng.uniform(0.0, 4.0);
    mwh.push_back(load);
    kw.push_back(load * 1000.0);
  }
  const TariffBill bill = bill_interval_load(t, p, 1, mwh);
  ASSERT_EQ(bill.months.size(), 1u);
  EXPECT_NEAR(bill.months[0].billed_kw, billed_rate_p95(kw), test::kNumericTol);
  // The percentile meter never exceeds the true peak.
  t.demand_percentile = 100.0;
  const TariffBill peak = bill_interval_load(t, p, 1, mwh);
  EXPECT_LE(bill.months[0].billed_kw, peak.months[0].billed_kw);
}

TEST(Tariff, Validation) {
  TariffSchedule t;
  const Period p{0, 2};
  const std::vector<double> mwh = {1.0, 1.0};
  const std::vector<double> spot = {10.0, 10.0};
  // Length mismatch.
  EXPECT_THROW((void)bill_interval_load(t, Period{0, 3}, 1, mwh, spot),
               std::invalid_argument);
  // Indexed schedule without a spot series.
  EXPECT_THROW((void)bill_interval_load(t, p, 1, mwh), std::invalid_argument);
  // Bad percentile / negative rates.
  t.demand_percentile = 0.0;
  EXPECT_THROW((void)bill_interval_load(t, p, 1, mwh, spot),
               std::invalid_argument);
  t.demand_percentile = 101.0;
  EXPECT_THROW((void)bill_interval_load(t, p, 1, mwh, spot),
               std::invalid_argument);
  t = TariffSchedule{};
  t.energy_adder = UsdPerMwh{-1.0};
  EXPECT_THROW((void)bill_interval_load(t, p, 1, mwh, spot),
               std::invalid_argument);
}

TEST(Tariff, EmptyPeriodBillsNothing) {
  TariffSchedule t;
  t.index_to_wholesale = false;
  t.demand_usd_per_kw_month = Usd{10.0};
  const TariffBill bill = bill_interval_load(t, Period{0, 0}, 1, {});
  EXPECT_DOUBLE_EQ(bill.total().value(), 0.0);
  EXPECT_TRUE(bill.months.empty());
}

}  // namespace
}  // namespace cebis::billing
