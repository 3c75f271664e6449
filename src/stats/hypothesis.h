// Hypothesis tests used by the paper's analysis:
//   * two-sample t-tests for cohort comparisons (Figures 6, 7, 10),
//   * chi-square goodness-of-fit for distribution fits (Figure 9).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace storsubsim::stats {

struct TTestResult {
  double t_statistic = 0.0;
  double degrees_of_freedom = 0.0;
  double p_value_two_sided = 1.0;
  double mean_a = 0.0;
  double mean_b = 0.0;
  double difference = 0.0;

  /// True when the two-sided p-value is below 1 - confidence
  /// (e.g. confidence 0.995 for the paper's "99.5% confidence interval").
  bool significant_at(double confidence) const { return p_value_two_sided < 1.0 - confidence; }
};

/// Welch's unequal-variance two-sample t-test on raw samples.
// storsim-lint: allow(unused-export) reason=deferred: only WelchTTest.* tests call it
TTestResult welch_t_test(std::span<const double> a, std::span<const double> b);

/// Two-proportion z-test expressed as a t-test result (large-sample), used
/// for comparing failure fractions between cohorts.
TTestResult two_proportion_test(std::size_t successes_a, std::size_t total_a,
                                std::size_t successes_b, std::size_t total_b);

struct ChiSquareResult {
  double statistic = 0.0;
  double degrees_of_freedom = 0.0;
  double p_value = 1.0;
  std::size_t bins_used = 0;

  /// Null hypothesis "sample follows the model" is rejected at level alpha.
  bool rejected_at(double alpha) const { return p_value < alpha; }
};

/// Chi-square goodness-of-fit of a positive sample against a model CDF.
///
/// Bins are chosen as equal-probability intervals under the model (so the
/// expected count per bin is n / bins). `fitted_params` is subtracted from
/// the degrees of freedom. A minimum expected count of 5 is enforced by
/// reducing the bin count when the sample is small.
ChiSquareResult chi_square_gof(std::span<const double> xs,
                               const std::function<double(double)>& model_cdf,
                               const std::function<double(double)>& model_quantile,
                               std::size_t fitted_params, std::size_t bins = 20);

struct KsResult {
  double statistic = 0.0;  ///< sup |F_n - F|
  double p_value = 1.0;    ///< asymptotic Kolmogorov tail
  std::size_t n = 0;

  bool rejected_at(double alpha) const { return p_value < alpha; }
};

/// Survival function of the Kolmogorov distribution:
/// P(sqrt(n) D_n > x) for large n.
// storsim-lint: allow(unused-export) reason=deferred: only KolmogorovSf.* tests and ks_test call it
double kolmogorov_sf(double x);

/// One-sample Kolmogorov-Smirnov test of a sample against a fully-specified
/// model CDF. (With fitted parameters the p-value is anti-conservative, as
/// for any plug-in GoF test — prefer chi_square_gof with its df correction
/// when parameters were estimated from the same data.)
// storsim-lint: allow(unused-export) reason=deferred: only KsTest.* and KsDistance.* tests call it
KsResult ks_test(std::span<const double> xs,
                 const std::function<double(double)>& model_cdf);

}  // namespace storsubsim::stats
