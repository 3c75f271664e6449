// Hypothesis tests: two-proportion test values against reference
// computations, chi-square calibration (size under the null, power under
// alternatives).
#include "stats/hypothesis.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "stats/distributions.h"
#include "stats/rng.h"

namespace stats = storsubsim::stats;

TEST(TwoProportionTest, ObviousDifference) {
  const auto r = stats::two_proportion_test(900, 1000, 100, 1000);
  EXPECT_TRUE(r.significant_at(0.999));
  EXPECT_GT(r.t_statistic, 10.0);
}

TEST(TwoProportionTest, EqualProportions) {
  const auto r = stats::two_proportion_test(50, 1000, 50, 1000);
  EXPECT_NEAR(r.t_statistic, 0.0, 1e-12);
  EXPECT_FALSE(r.significant_at(0.9));
}

TEST(TwoProportionTest, ReferenceValue) {
  // p1=0.3 (30/100), p2=0.2 (20/100): pooled z = 1.6330.
  const auto r = stats::two_proportion_test(30, 100, 20, 100);
  EXPECT_NEAR(r.t_statistic, 1.6329931618554518, 1e-9);
  EXPECT_NEAR(r.p_value_two_sided, 0.10247043485974934, 1e-6);
}

namespace {

/// chi_square_gof against the uniform [0, 1] model, with observed[i] points
/// at the centre of the i-th of observed.size() equal-probability bins, so
/// the binned counts are exactly `observed` (n / bins expected in each).
stats::ChiSquareResult uniform_gof(const std::vector<std::size_t>& observed,
                                   std::size_t fitted) {
  const double bins = static_cast<double>(observed.size());
  std::vector<double> xs;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    xs.insert(xs.end(), observed[i], (static_cast<double>(i) + 0.5) / bins);
  }
  return stats::chi_square_gof(
      xs, [](double x) { return std::clamp(x, 0.0, 1.0); }, [](double p) { return p; }, fitted,
      observed.size());
}

}  // namespace

TEST(ChiSquareFromCounts, PerfectFitNotRejected) {
  const auto r = uniform_gof({10, 10, 10, 10, 10}, 0);
  EXPECT_NEAR(r.statistic, 0.0, 1e-12);
  EXPECT_NEAR(r.p_value, 1.0, 1e-9);
  EXPECT_FALSE(r.rejected_at(0.05));
}

TEST(ChiSquareFromCounts, GrossMismatchRejected) {
  const auto r = uniform_gof({50, 0, 0, 0, 0}, 0);
  EXPECT_TRUE(r.rejected_at(0.001));
}

TEST(ChiSquareFromCounts, DegreesOfFreedomAccounting) {
  const std::vector<std::size_t> obs = {12, 9, 11, 8};
  const auto r0 = uniform_gof(obs, 0);
  const auto r1 = uniform_gof(obs, 1);
  EXPECT_EQ(r0.bins_used, 4u);
  EXPECT_DOUBLE_EQ(r0.degrees_of_freedom, 3.0);
  EXPECT_DOUBLE_EQ(r1.degrees_of_freedom, 2.0);
  EXPECT_DOUBLE_EQ(r0.statistic, r1.statistic);
  EXPECT_THROW(uniform_gof(obs, 3), std::invalid_argument);
}

TEST(ChiSquareGof, CorrectModelNotRejected) {
  stats::Rng rng(77);
  const stats::Exponential d(0.2);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = d.sample(rng);
  const auto r = stats::chi_square_gof(
      xs, [&](double x) { return d.cdf(x); }, [&](double p) { return d.quantile(p); }, 1, 20);
  EXPECT_FALSE(r.rejected_at(0.01));
  EXPECT_EQ(r.bins_used, 20u);
}

TEST(ChiSquareGof, WrongModelRejected) {
  stats::Rng rng(78);
  const stats::Gamma true_d(0.4, 5.0);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = true_d.sample(rng);
  const stats::Exponential wrong(1.0 / true_d.mean());
  const auto r = stats::chi_square_gof(
      xs, [&](double x) { return wrong.cdf(x); }, [&](double p) { return wrong.quantile(p); },
      1, 20);
  EXPECT_TRUE(r.rejected_at(0.001));
}

TEST(ChiSquareGof, SmallSamplesReduceBins) {
  stats::Rng rng(79);
  const stats::Exponential d(1.0);
  std::vector<double> xs(30);
  for (auto& x : xs) x = d.sample(rng);
  const auto r = stats::chi_square_gof(
      xs, [&](double x) { return d.cdf(x); }, [&](double p) { return d.quantile(p); }, 1, 50);
  // 30 samples / 5 per bin minimum = at most 6 bins.
  EXPECT_LE(r.bins_used, 6u);
}

TEST(ChiSquareGof, NullCalibration) {
  // Under the true model the rejection rate at alpha=0.05 should be ~5%.
  stats::Rng rng(80);
  const stats::Exponential d(1.0);
  int rejections = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> xs(500);
    for (auto& x : xs) x = d.sample(rng);
    const auto r = stats::chi_square_gof(
        xs, [&](double x) { return d.cdf(x); }, [&](double p) { return d.quantile(p); }, 1,
        15);
    if (r.rejected_at(0.05)) ++rejections;
  }
  // Binomial(200, 0.05): mean 10, sd ~3.1; allow wide band.
  EXPECT_GE(rejections, 1);
  EXPECT_LE(rejections, 25);
}
