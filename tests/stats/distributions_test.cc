// Distribution correctness: pdf/cdf/quantile identities and parameterized
// property sweeps verifying sampler moments against analytic values.
#include "stats/distributions.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "stats/summary.h"

namespace stats = storsubsim::stats;
using stats::Rng;

namespace {

template <typename D>
void expect_quantile_roundtrip(const D& d, double p, double tol = 1e-9) {
  EXPECT_NEAR(d.cdf(d.quantile(p)), p, tol) << d.describe() << " p=" << p;
}

template <typename D>
void expect_pdf_integrates_cdf(const D& d, double lo, double hi, double tol) {
  // Trapezoidal integral of the pdf over [lo, hi] should match the CDF delta.
  const int n = 4000;
  double sum = 0.0;
  const double h = (hi - lo) / n;
  for (int i = 0; i <= n; ++i) {
    const double w = (i == 0 || i == n) ? 0.5 : 1.0;
    sum += w * d.pdf(lo + i * h);
  }
  EXPECT_NEAR(sum * h, d.cdf(hi) - d.cdf(lo), tol) << d.describe();
}

}  // namespace

TEST(Exponential, Basics) {
  const stats::Exponential d(0.5);
  EXPECT_DOUBLE_EQ(d.mean(), 2.0);
  EXPECT_DOUBLE_EQ(d.variance(), 4.0);
  EXPECT_DOUBLE_EQ(d.cdf(0.0), 0.0);
  EXPECT_NEAR(d.cdf(2.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(d.pdf(-1.0), 0.0);
  for (const double p : {0.05, 0.5, 0.95}) expect_quantile_roundtrip(d, p);
  expect_pdf_integrates_cdf(d, 0.0, 10.0, 1e-6);
}

TEST(Exponential, RejectsBadParams) {
  EXPECT_THROW(stats::Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(stats::Exponential(-2.0), std::invalid_argument);
}

TEST(Gamma, Basics) {
  const stats::Gamma d(3.0, 2.0);
  EXPECT_DOUBLE_EQ(d.mean(), 6.0);
  EXPECT_DOUBLE_EQ(d.variance(), 12.0);
  // Gamma(1, theta) == Exponential(1/theta).
  const stats::Gamma g1(1.0, 4.0);
  const stats::Exponential e(0.25);
  for (const double x : {0.3, 1.0, 5.0, 20.0}) {
    EXPECT_NEAR(g1.cdf(x), e.cdf(x), 1e-12);
    EXPECT_NEAR(g1.pdf(x), e.pdf(x), 1e-12);
  }
  for (const double p : {0.1, 0.5, 0.9}) expect_quantile_roundtrip(d, p, 1e-7);
  expect_pdf_integrates_cdf(d, 0.0, 40.0, 1e-6);
}

TEST(Weibull, Basics) {
  const stats::Weibull d(2.0, 3.0);
  // Mean = 3 * Gamma(1.5).
  EXPECT_NEAR(d.mean(), 3.0 * 0.8862269254527580, 1e-9);
  // Weibull(1, s) == Exponential(1/s).
  const stats::Weibull w1(1.0, 2.0);
  const stats::Exponential e(0.5);
  for (const double x : {0.2, 1.0, 4.0}) {
    EXPECT_NEAR(w1.cdf(x), e.cdf(x), 1e-12);
  }
  for (const double p : {0.1, 0.5, 0.9}) expect_quantile_roundtrip(d, p);
  expect_pdf_integrates_cdf(d, 0.0, 15.0, 1e-6);
}

TEST(Weibull, HazardShapes) {
  // shape < 1: decreasing hazard (infant mortality); shape > 1: increasing.
  const stats::Weibull infant(0.6, 1.0);
  EXPECT_GT(infant.hazard(0.1), infant.hazard(1.0));
  const stats::Weibull wearout(2.5, 1.0);
  EXPECT_LT(wearout.hazard(0.1), wearout.hazard(1.0));
  // shape == 1: constant hazard = 1/scale.
  const stats::Weibull memoryless(1.0, 4.0);
  EXPECT_NEAR(memoryless.hazard(0.5), 0.25, 1e-12);
  EXPECT_NEAR(memoryless.hazard(7.0), 0.25, 1e-12);
}

TEST(LogNormal, Basics) {
  const stats::LogNormal d(1.0, 0.5);
  EXPECT_NEAR(d.mean(), std::exp(1.0 + 0.125), 1e-9);
  EXPECT_DOUBLE_EQ(d.cdf(0.0), 0.0);
  // Median = exp(mu).
  EXPECT_NEAR(d.quantile(0.5), std::exp(1.0), 1e-9);
  for (const double p : {0.1, 0.5, 0.9}) expect_quantile_roundtrip(d, p, 1e-8);
  expect_pdf_integrates_cdf(d, 0.001, 40.0, 1e-5);
}

TEST(Poisson, PmfSumsToOne) {
  const stats::Poisson d(4.2);
  double total = 0.0;
  for (std::uint64_t k = 0; k < 60; ++k) total += d.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(Poisson, CdfMatchesPmfSum) {
  const stats::Poisson d(7.7);
  double cumulative = 0.0;
  for (std::uint64_t k = 0; k < 25; ++k) {
    cumulative += d.pmf(k);
    EXPECT_NEAR(d.cdf(k), cumulative, 1e-9) << "k=" << k;
  }
}

TEST(Poisson, ZeroMean) {
  const stats::Poisson d(0.0);
  Rng rng(1);
  EXPECT_EQ(d.sample(rng), 0u);
  EXPECT_DOUBLE_EQ(d.pmf(0), 1.0);
}

// ---------------------------------------------------------------------------
// Property sweeps: sampler moments match analytic moments.
// ---------------------------------------------------------------------------

struct MomentCase {
  const char* name;
  double mean;
  double variance;
  std::function<double(Rng&)> sample;
};

class SamplerMoments : public ::testing::TestWithParam<int> {};

TEST_P(SamplerMoments, MeanAndVarianceMatch) {
  const int idx = GetParam();
  Rng rng(1234 + static_cast<std::uint64_t>(idx));
  std::vector<MomentCase> cases;
  cases.push_back({"exp", 2.0, 4.0, [](Rng& r) { return stats::Exponential(0.5).sample(r); }});
  cases.push_back(
      {"gamma-small", 0.8, 1.6, [](Rng& r) { return stats::Gamma(0.4, 2.0).sample(r); }});
  cases.push_back(
      {"gamma-big", 15.0, 7.5, [](Rng& r) { return stats::Gamma(30.0, 0.5).sample(r); }});
  cases.push_back({"weibull", stats::Weibull(1.7, 3.0).mean(),
                   stats::Weibull(1.7, 3.0).variance(),
                   [](Rng& r) { return stats::Weibull(1.7, 3.0).sample(r); }});
  cases.push_back({"lognormal", stats::LogNormal(0.3, 0.6).mean(),
                   stats::LogNormal(0.3, 0.6).variance(),
                   [](Rng& r) { return stats::LogNormal(0.3, 0.6).sample(r); }});
  cases.push_back({"poisson-small", 2.5, 2.5,
                   [](Rng& r) {
                     return static_cast<double>(stats::Poisson(2.5).sample(r));
                   }});
  cases.push_back({"poisson-large", 80.0, 80.0,
                   [](Rng& r) {
                     return static_cast<double>(stats::Poisson(80.0).sample(r));
                   }});
  const auto& c = cases[static_cast<std::size_t>(idx)];

  stats::Accumulator acc;
  const int n = 60000;
  for (int i = 0; i < n; ++i) acc.add(c.sample(rng));
  // 5-sigma tolerance on the mean, generous tolerance on the variance.
  const double mean_tol = 5.0 * std::sqrt(c.variance / n);
  EXPECT_NEAR(acc.mean(), c.mean, mean_tol) << c.name;
  EXPECT_NEAR(acc.variance(), c.variance, 0.12 * c.variance + 1e-9) << c.name;
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, SamplerMoments, ::testing::Range(0, 7));

TEST(StandardGamma, SmallShapeMean) {
  // The shape < 1 augmentation path must keep the mean = shape.
  Rng rng(99);
  stats::Accumulator acc;
  for (int i = 0; i < 80000; ++i) acc.add(stats::Gamma(0.25, 1.0).sample(rng));
  EXPECT_NEAR(acc.mean(), 0.25, 0.02);
}

TEST(StandardNormal, MomentsAndSymmetry) {
  Rng rng(7);
  stats::Accumulator acc;
  int positives = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double z = stats::sample_standard_normal(rng);
    acc.add(z);
    if (z > 0.0) ++positives;
  }
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.variance(), 1.0, 0.03);
  EXPECT_NEAR(static_cast<double>(positives) / n, 0.5, 0.01);
}

TEST(SampleDistribution, EmpiricalCdfMatchesAnalytic) {
  // Kolmogorov-style check: max deviation between empirical and analytic CDF
  // should be small for a correct sampler.
  Rng rng(42);
  const stats::Gamma d(2.3, 1.7);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = d.sample(rng);
  std::sort(xs.begin(), xs.end());
  double max_dev = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double emp = static_cast<double>(i + 1) / static_cast<double>(xs.size());
    max_dev = std::max(max_dev, std::fabs(emp - d.cdf(xs[i])));
  }
  // KS 1% critical value ~ 1.63/sqrt(n) ~ 0.0115.
  EXPECT_LT(max_dev, 0.0115);
}
