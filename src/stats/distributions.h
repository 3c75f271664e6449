// Probability distributions used by the failure simulator and the
// distribution-fitting analysis (paper Figure 9: Exponential, Gamma, Weibull
// fits to time-between-failure data).
//
// Each distribution is a small value type with pdf/cdf/quantile/sample
// members. Parameters are validated at construction; invalid parameters
// throw std::invalid_argument (configuration error, not a hot path).
#pragma once

#include <cstdint>
#include <string>

#include "stats/rng.h"

namespace storsubsim::stats {

/// Exponential(rate). Mean = 1/rate. The memoryless baseline used by
/// classical RAID reliability models (the assumption the paper refutes).
class Exponential {
 public:
  explicit Exponential(double rate);

  // storsim-lint: allow(unused-export) reason=test oracle: expect_pdf_integrates_cdf checks every cdf
  double pdf(double x) const;
  double log_pdf(double x) const;
  double cdf(double x) const;
  double quantile(double p) const;
  double sample(Rng& rng) const;

  double mean() const;
  double variance() const;
  double rate() const { return rate_; }

  std::string describe() const;

 private:
  double rate_;
};

/// Gamma(shape k, scale theta). Mean = k*theta. The paper finds Gamma is the
/// best (and only non-rejected) fit for disk-failure interarrivals.
class Gamma {
 public:
  Gamma(double shape, double scale);

  double pdf(double x) const;
  double log_pdf(double x) const;
  double cdf(double x) const;
  double quantile(double p) const;
  double sample(Rng& rng) const;

  double mean() const;
  double variance() const;
  // storsim-lint: allow(unused-export) reason=test oracle: fit tests read fitted shapes back through it
  double shape() const { return shape_; }
  double scale() const { return scale_; }

  std::string describe() const;

 private:
  double shape_;
  double scale_;
};

/// Weibull(shape k, scale lambda). shape < 1 models infant mortality,
/// shape > 1 models wear-out; shape == 1 degenerates to Exponential.
class Weibull {
 public:
  Weibull(double shape, double scale);

  double pdf(double x) const;
  double log_pdf(double x) const;
  double cdf(double x) const;
  double quantile(double p) const;
  double sample(Rng& rng) const;

  /// Hazard rate h(x) = pdf / (1 - cdf); used by the hazard-process layer.
  double hazard(double x) const;

  double mean() const;
  double variance() const;
  double shape() const { return shape_; }
  double scale() const { return scale_; }

  std::string describe() const;

 private:
  double shape_;
  double scale_;
};

/// LogNormal(mu, sigma) of the underlying normal. Used for repair/replacement
/// delays, which are right-skewed in practice.
class LogNormal {
 public:
  LogNormal(double mu, double sigma);

  double pdf(double x) const;
  double log_pdf(double x) const;
  double cdf(double x) const;
  double quantile(double p) const;
  double sample(Rng& rng) const;

  double mean() const;
  double variance() const;
  double mu() const { return mu_; }
  double sigma() const { return sigma_; }

  std::string describe() const;

 private:
  double mu_;
  double sigma_;
};

/// Pareto(scale x_m, shape alpha): heavy-tailed durations (burst windows).
class Pareto {
 public:
  Pareto(double scale, double shape);

  double pdf(double x) const;
  double cdf(double x) const;
  double quantile(double p) const;
  double sample(Rng& rng) const;

  double mean() const;  // +inf when shape <= 1
  double scale() const { return scale_; }
  double shape() const { return shape_; }

  std::string describe() const;

 private:
  double scale_;
  double shape_;
};

/// Poisson(mean). Counting distribution for event counts in fixed windows.
class Poisson {
 public:
  explicit Poisson(double mean);

  // storsim-lint: allow(unused-export) reason=test oracle: Poisson.CdfMatchesPmfSum checks Poisson::cdf
  double pmf(std::uint64_t k) const;
  double cdf(std::uint64_t k) const;
  std::uint64_t sample(Rng& rng) const;

  double mean() const { return mean_; }
  double variance() const { return mean_; }

  std::string describe() const;

 private:
  double mean_;
};

/// Samples a standard normal via Box–Muller (single draw, no caching so the
/// generator state advance is deterministic per call).
double sample_standard_normal(Rng& rng);

}  // namespace storsubsim::stats
