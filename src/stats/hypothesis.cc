#include "stats/hypothesis.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/special_functions.h"
#include "stats/summary.h"

namespace storsubsim::stats {

namespace {

/// Welch's t-test from sufficient statistics (mean, sample variance, n).
TTestResult welch_t_test_summary(double mean_a, double var_a, std::size_t n_a, double mean_b,
                                 double var_b, std::size_t n_b) {
  if (n_a < 2 || n_b < 2) throw std::invalid_argument("welch_t_test: need n >= 2 per group");
  TTestResult r;
  r.mean_a = mean_a;
  r.mean_b = mean_b;
  r.difference = mean_a - mean_b;
  const double na = static_cast<double>(n_a);
  const double nb = static_cast<double>(n_b);
  const double sa = var_a / na;
  const double sb = var_b / nb;
  const double se2 = sa + sb;
  if (se2 <= 0.0) {
    // Identical, dispersion-free groups: no evidence either way.
    r.t_statistic = 0.0;
    r.degrees_of_freedom = na + nb - 2.0;
    r.p_value_two_sided = (mean_a == mean_b) ? 1.0 : 0.0;
    return r;
  }
  r.t_statistic = (mean_a - mean_b) / std::sqrt(se2);
  // Welch–Satterthwaite degrees of freedom.
  r.degrees_of_freedom =
      se2 * se2 / (sa * sa / (na - 1.0) + sb * sb / (nb - 1.0));
  r.p_value_two_sided = student_t_two_sided_p(r.t_statistic, r.degrees_of_freedom);
  return r;
}

/// Chi-square test from pre-binned observed/expected counts.
ChiSquareResult chi_square_from_counts(std::span<const double> observed,
                                       std::span<const double> expected,
                                       std::size_t fitted_params) {
  if (observed.size() != expected.size() || observed.empty()) {
    throw std::invalid_argument("chi_square_from_counts: size mismatch");
  }
  ChiSquareResult r;
  double stat = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (expected[i] <= 0.0) continue;
    const double d = observed[i] - expected[i];
    stat += d * d / expected[i];
    ++used;
  }
  if (used <= fitted_params + 1) {
    throw std::invalid_argument("chi_square_from_counts: not enough usable bins");
  }
  r.statistic = stat;
  r.bins_used = used;
  r.degrees_of_freedom = static_cast<double>(used - 1 - fitted_params);
  r.p_value = chi_square_sf(stat, r.degrees_of_freedom);
  return r;
}

}  // namespace

TTestResult welch_t_test(std::span<const double> a, std::span<const double> b) {
  Accumulator aa, ab;
  for (const double x : a) aa.add(x);
  for (const double x : b) ab.add(x);
  return welch_t_test_summary(aa.mean(), aa.variance(), aa.count(), ab.mean(), ab.variance(),
                              ab.count());
}

TTestResult two_proportion_test(std::size_t successes_a, std::size_t total_a,
                                std::size_t successes_b, std::size_t total_b) {
  if (total_a == 0 || total_b == 0) {
    throw std::invalid_argument("two_proportion_test: empty cohort");
  }
  const double na = static_cast<double>(total_a);
  const double nb = static_cast<double>(total_b);
  const double pa = static_cast<double>(successes_a) / na;
  const double pb = static_cast<double>(successes_b) / nb;
  TTestResult r;
  r.mean_a = pa;
  r.mean_b = pb;
  r.difference = pa - pb;
  const double pooled = (static_cast<double>(successes_a) + static_cast<double>(successes_b)) /
                        (na + nb);
  const double se = std::sqrt(pooled * (1.0 - pooled) * (1.0 / na + 1.0 / nb));
  if (se == 0.0) {
    r.t_statistic = 0.0;
    r.degrees_of_freedom = na + nb - 2.0;
    r.p_value_two_sided = (pa == pb) ? 1.0 : 0.0;
    return r;
  }
  r.t_statistic = (pa - pb) / se;
  r.degrees_of_freedom = na + nb - 2.0;
  // Large-sample z: normal tail doubles.
  r.p_value_two_sided = 2.0 * (1.0 - normal_cdf(std::fabs(r.t_statistic)));
  return r;
}

ChiSquareResult chi_square_gof(std::span<const double> xs,
                               const std::function<double(double)>& model_cdf,
                               const std::function<double(double)>& model_quantile,
                               std::size_t fitted_params, std::size_t bins) {
  if (xs.empty()) throw std::invalid_argument("chi_square_gof: empty sample");
  const std::size_t n = xs.size();
  // Enforce a minimum expected count of ~5 per bin.
  std::size_t b = std::min(bins, std::max<std::size_t>(2, n / 5));
  if (b < 2) b = 2;

  std::vector<double> edges;
  edges.reserve(b - 1);
  for (std::size_t i = 1; i < b; ++i) {
    edges.push_back(model_quantile(static_cast<double>(i) / static_cast<double>(b)));
  }
  std::vector<double> observed(b, 0.0);
  for (const double x : xs) {
    const auto it = std::upper_bound(edges.begin(), edges.end(), x);
    observed[static_cast<std::size_t>(it - edges.begin())] += 1.0;
  }
  // Expected counts are exactly n/b by equal-probability construction, but
  // compute from the CDF so a mismatched (cdf, quantile) pair is detected by
  // tests rather than hidden.
  std::vector<double> expected(b, 0.0);
  double prev = 0.0;
  for (std::size_t i = 0; i + 1 < b; ++i) {
    const double c = model_cdf(edges[i]);
    expected[i] = (c - prev) * static_cast<double>(n);
    prev = c;
  }
  expected[b - 1] = (1.0 - prev) * static_cast<double>(n);
  return chi_square_from_counts(observed, expected, fitted_params);
}

double kolmogorov_sf(double x) {
  if (x <= 0.0) return 1.0;
  // Q(x) = 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 x^2); converges fast for the
  // x range of interest. For tiny x use the complementary (theta-function)
  // expansion to avoid catastrophic cancellation.
  if (x < 0.4) {
    // P(x) = sqrt(2 pi)/x * sum exp(-(2k-1)^2 pi^2 / (8 x^2)); Q = 1 - P.
    const double pi = 3.14159265358979323846;
    double p = 0.0;
    for (int k = 1; k <= 5; ++k) {
      const double m = (2.0 * k - 1.0) * pi / x;
      p += std::exp(-m * m / 8.0);
    }
    p *= std::sqrt(2.0 * pi) / x;
    return std::max(0.0, 1.0 - p);
  }
  double q = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * k * k * x * x);
    q += sign * term;
    sign = -sign;
    if (term < 1e-16) break;
  }
  return std::clamp(2.0 * q, 0.0, 1.0);
}

KsResult ks_test(std::span<const double> xs,
                 const std::function<double(double)>& model_cdf) {
  if (xs.empty()) throw std::invalid_argument("ks_test: empty sample");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  double d = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double f = model_cdf(sorted[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max(d, std::max(f - lo, hi - f));
  }
  KsResult r;
  r.statistic = d;
  r.n = sorted.size();
  // Asymptotic with the Stephens small-sample correction.
  const double sqrt_n = std::sqrt(n);
  r.p_value = kolmogorov_sf((sqrt_n + 0.12 + 0.11 / sqrt_n) * d);
  return r;
}

}  // namespace storsubsim::stats
