// MLE fitter correctness: parameter recovery across a grid of true
// parameters (property-style TEST_P sweeps), plus degenerate-input handling.
#include "stats/fitting.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "stats/rng.h"
#include "stats/summary.h"

namespace stats = storsubsim::stats;
using stats::Rng;

TEST(ExponentialMle, ClosedForm) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const auto fit = stats::fit_exponential_mle(xs);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.param1, 1.0 / 2.5, 1e-12);
}

TEST(ExponentialMle, RejectsBadSamples) {
  EXPECT_THROW(stats::fit_exponential_mle(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(stats::fit_exponential_mle(std::vector<double>{1.0, -2.0}),
               std::invalid_argument);
  EXPECT_THROW(stats::fit_exponential_mle(std::vector<double>{1.0, 0.0}),
               std::invalid_argument);
}

struct GammaCase {
  double shape;
  double scale;
};

class GammaRecovery : public ::testing::TestWithParam<GammaCase> {};

TEST_P(GammaRecovery, MleRecoversParameters) {
  const auto [shape, scale] = GetParam();
  Rng rng(555 + static_cast<std::uint64_t>(shape * 100) +
          static_cast<std::uint64_t>(scale * 10));
  const stats::Gamma d(shape, scale);
  std::vector<double> xs(30000);
  for (auto& x : xs) x = d.sample(rng);
  const auto fit = stats::fit_gamma_mle(xs);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.param1, shape, 0.06 * shape);
  EXPECT_NEAR(fit.param2, scale, 0.08 * scale);
  // MLE likelihood should beat (or match) the method-of-moments estimate
  // shape = mean^2/var, scale = var/mean.
  stats::Accumulator acc;
  for (const double x : xs) acc.add(x);
  const double m = acc.mean();
  const double v = acc.variance();
  EXPECT_GE(fit.log_likelihood, stats::log_likelihood(stats::Gamma(m * m / v, v / m), xs) - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(ShapeScaleGrid, GammaRecovery,
                         ::testing::Values(GammaCase{0.3, 2.0}, GammaCase{0.5, 10.0},
                                           GammaCase{1.0, 1.0}, GammaCase{2.0, 0.5},
                                           GammaCase{5.0, 3.0}, GammaCase{9.0, 0.1}));

struct WeibullCase {
  double shape;
  double scale;
};

class WeibullRecovery : public ::testing::TestWithParam<WeibullCase> {};

TEST_P(WeibullRecovery, MleRecoversParameters) {
  const auto [shape, scale] = GetParam();
  Rng rng(777 + static_cast<std::uint64_t>(shape * 100));
  const stats::Weibull d(shape, scale);
  std::vector<double> xs(30000);
  for (auto& x : xs) x = d.sample(rng);
  const auto fit = stats::fit_weibull_mle(xs);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.param1, shape, 0.05 * shape);
  EXPECT_NEAR(fit.param2, scale, 0.05 * scale);
}

INSTANTIATE_TEST_SUITE_P(ShapeScaleGrid, WeibullRecovery,
                         ::testing::Values(WeibullCase{0.5, 1.0}, WeibullCase{0.8, 100.0},
                                           WeibullCase{1.0, 5.0}, WeibullCase{1.5, 2.0},
                                           WeibullCase{3.0, 10.0}));

TEST(GammaMle, NearDegenerateSample) {
  // All-equal samples: shape capped, mean preserved.
  const std::vector<double> xs(100, 3.0);
  const auto fit = stats::fit_gamma_mle(xs);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.param1 * fit.param2, 3.0, 1e-6);
  EXPECT_GT(fit.param1, 1e3);
}

TEST(ModelSelection, LikelihoodPrefersTrueFamily) {
  // Data from a Gamma(0.5) should prefer Gamma over Exponential, and data
  // from an Exponential should make Gamma's advantage negligible.
  Rng rng(31337);
  const stats::Gamma true_d(0.5, 4.0);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = true_d.sample(rng);
  const auto g = stats::fit_gamma_mle(xs);
  const auto e = stats::fit_exponential_mle(xs);
  EXPECT_GT(g.log_likelihood, e.log_likelihood + 100.0);

  const stats::Exponential true_e(2.0);
  for (auto& x : xs) x = true_e.sample(rng);
  const auto g2 = stats::fit_gamma_mle(xs);
  const auto e2 = stats::fit_exponential_mle(xs);
  // Gamma nests Exponential: advantage exists but should be tiny.
  EXPECT_GE(g2.log_likelihood, e2.log_likelihood - 1e-6);
  EXPECT_LT(g2.log_likelihood - e2.log_likelihood, 5.0);
  EXPECT_NEAR(g2.param1, 1.0, 0.05);  // fitted shape ~ 1
}

TEST(LogLikelihood, MatchesManualSum) {
  const stats::Exponential d(0.5);
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_NEAR(stats::log_likelihood(d, xs), d.log_pdf(1.0) + d.log_pdf(2.0), 1e-12);
}
