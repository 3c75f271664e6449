// Kolmogorov-Smirnov test: distribution values, null calibration, power.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "stats/distributions.h"
#include "stats/hypothesis.h"
#include "stats/rng.h"

namespace stats = storsubsim::stats;

TEST(KolmogorovSf, KnownValues) {
  // Standard critical values: Q(1.3581) ~ 0.05, Q(1.6276) ~ 0.01.
  EXPECT_NEAR(stats::kolmogorov_sf(1.3581), 0.05, 2e-3);
  EXPECT_NEAR(stats::kolmogorov_sf(1.6276), 0.01, 5e-4);
  EXPECT_NEAR(stats::kolmogorov_sf(0.8276), 0.5, 5e-3);
}

TEST(KolmogorovSf, Boundaries) {
  EXPECT_DOUBLE_EQ(stats::kolmogorov_sf(0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::kolmogorov_sf(-1.0), 1.0);
  EXPECT_LT(stats::kolmogorov_sf(3.0), 1e-7);
  // Continuity across the series switch point at x = 0.4: the function's
  // slope there is ~0.1 per unit x, so 0.002 of x moves sf by ~2e-4.
  EXPECT_NEAR(stats::kolmogorov_sf(0.399), stats::kolmogorov_sf(0.401), 5e-4);
  // Reference value at the switch point itself.
  EXPECT_NEAR(stats::kolmogorov_sf(0.4), 0.9971923, 1e-6);
}

TEST(KsTest, CorrectModelNotRejected) {
  stats::Rng rng(5);
  const stats::Exponential d(0.25);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = d.sample(rng);
  const auto r = stats::ks_test(xs, [&](double x) { return d.cdf(x); });
  EXPECT_FALSE(r.rejected_at(0.01));
  EXPECT_EQ(r.n, 2000u);
  EXPECT_GT(r.statistic, 0.0);
}

TEST(KsTest, WrongModelRejected) {
  stats::Rng rng(6);
  const stats::Gamma true_d(0.5, 4.0);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = true_d.sample(rng);
  const stats::Exponential wrong(1.0 / true_d.mean());
  const auto r = stats::ks_test(xs, [&](double x) { return wrong.cdf(x); });
  EXPECT_TRUE(r.rejected_at(0.001));
}

TEST(KsTest, NullCalibration) {
  // Under the true model, rejection at alpha=0.10 should happen ~10% of the
  // time.
  stats::Rng rng(7);
  const stats::Weibull d(1.5, 2.0);
  int rejections = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> xs(200);
    for (auto& x : xs) x = d.sample(rng);
    if (stats::ks_test(xs, [&](double x) { return d.cdf(x); }).rejected_at(0.10)) {
      ++rejections;
    }
  }
  // Binomial(300, 0.1): mean 30, sd ~5.2.
  EXPECT_GE(rejections, 10);
  EXPECT_LE(rejections, 55);
}

TEST(KsTest, EmptySampleThrows) {
  EXPECT_THROW(stats::ks_test(std::vector<double>{}, [](double) { return 0.5; }),
               std::invalid_argument);
}

// ks_test's statistic is the KS distance sup |F_n - F| between the sample's
// ECDF and the model.
TEST(KsDistance, ZeroForPerfectModel) {
  // A uniform sample against the uniform CDF: KS should be small.
  stats::Rng rng(17);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.uniform();
  const double d =
      stats::ks_test(xs, [](double x) { return std::clamp(x, 0.0, 1.0); }).statistic;
  EXPECT_LT(d, 0.015);
}

TEST(KsDistance, LargeForWrongModel) {
  stats::Rng rng(18);
  const stats::Exponential exp_d(1.0);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = exp_d.sample(rng);
  // Compare against a badly-scaled exponential.
  const stats::Exponential wrong(10.0);
  const double d = stats::ks_test(xs, [&](double x) { return wrong.cdf(x); }).statistic;
  EXPECT_GT(d, 0.3);
}
