#include "stats/distributions.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "stats/special_functions.h"

namespace storsubsim::stats {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void require(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}

double sample_standard_gamma(Rng& rng, double shape);

}  // namespace

// ---------------------------------------------------------------------------
// Exponential
// ---------------------------------------------------------------------------

Exponential::Exponential(double rate) : rate_(rate) {
  require(rate > 0.0 && std::isfinite(rate), "Exponential: rate must be positive and finite");
}

double Exponential::pdf(double x) const { return x < 0.0 ? 0.0 : rate_ * std::exp(-rate_ * x); }

double Exponential::log_pdf(double x) const {
  return x < 0.0 ? -kInf : std::log(rate_) - rate_ * x;
}

double Exponential::cdf(double x) const { return x < 0.0 ? 0.0 : -std::expm1(-rate_ * x); }

double Exponential::quantile(double p) const {
  require(p >= 0.0 && p < 1.0, "Exponential::quantile: p must be in [0,1)");
  return -std::log1p(-p) / rate_;
}

double Exponential::sample(Rng& rng) const { return -std::log(rng.uniform_pos()) / rate_; }

double Exponential::mean() const { return 1.0 / rate_; }

double Exponential::variance() const { return 1.0 / (rate_ * rate_); }

std::string Exponential::describe() const {
  std::ostringstream os;
  os << "Exponential(rate=" << rate_ << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// Gamma
// ---------------------------------------------------------------------------

Gamma::Gamma(double shape, double scale) : shape_(shape), scale_(scale) {
  require(shape > 0.0 && std::isfinite(shape), "Gamma: shape must be positive and finite");
  require(scale > 0.0 && std::isfinite(scale), "Gamma: scale must be positive and finite");
}

double Gamma::pdf(double x) const { return x < 0.0 ? 0.0 : std::exp(log_pdf(x)); }

double Gamma::log_pdf(double x) const {
  if (x < 0.0) return -kInf;
  if (x == 0.0) {
    if (shape_ < 1.0) return kInf;
    if (shape_ == 1.0) return -std::log(scale_);
    return -kInf;
  }
  return (shape_ - 1.0) * std::log(x) - x / scale_ - lgamma_fn(shape_) -
         shape_ * std::log(scale_);
}

double Gamma::cdf(double x) const { return x <= 0.0 ? 0.0 : gamma_p(shape_, x / scale_); }

double Gamma::quantile(double p) const {
  require(p >= 0.0 && p < 1.0, "Gamma::quantile: p must be in [0,1)");
  return scale_ * gamma_p_inv(shape_, p);
}

double Gamma::sample(Rng& rng) const { return scale_ * sample_standard_gamma(rng, shape_); }

double Gamma::mean() const { return shape_ * scale_; }

double Gamma::variance() const { return shape_ * scale_ * scale_; }

std::string Gamma::describe() const {
  std::ostringstream os;
  os << "Gamma(shape=" << shape_ << ", scale=" << scale_ << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// Weibull
// ---------------------------------------------------------------------------

Weibull::Weibull(double shape, double scale) : shape_(shape), scale_(scale) {
  require(shape > 0.0 && std::isfinite(shape), "Weibull: shape must be positive and finite");
  require(scale > 0.0 && std::isfinite(scale), "Weibull: scale must be positive and finite");
}

double Weibull::pdf(double x) const { return x < 0.0 ? 0.0 : std::exp(log_pdf(x)); }

double Weibull::log_pdf(double x) const {
  if (x < 0.0) return -kInf;
  if (x == 0.0) {
    if (shape_ < 1.0) return kInf;
    if (shape_ == 1.0) return -std::log(scale_);
    return -kInf;
  }
  const double z = x / scale_;
  return std::log(shape_ / scale_) + (shape_ - 1.0) * std::log(z) - std::pow(z, shape_);
}

double Weibull::cdf(double x) const {
  return x <= 0.0 ? 0.0 : -std::expm1(-std::pow(x / scale_, shape_));
}

double Weibull::quantile(double p) const {
  require(p >= 0.0 && p < 1.0, "Weibull::quantile: p must be in [0,1)");
  return scale_ * std::pow(-std::log1p(-p), 1.0 / shape_);
}

double Weibull::sample(Rng& rng) const {
  return scale_ * std::pow(-std::log(rng.uniform_pos()), 1.0 / shape_);
}

double Weibull::hazard(double x) const {
  if (x <= 0.0) {
    if (shape_ < 1.0) return kInf;
    if (shape_ == 1.0) return 1.0 / scale_;
    return 0.0;
  }
  return (shape_ / scale_) * std::pow(x / scale_, shape_ - 1.0);
}

double Weibull::mean() const { return scale_ * gamma_fn(1.0 + 1.0 / shape_); }

double Weibull::variance() const {
  const double g1 = gamma_fn(1.0 + 1.0 / shape_);
  const double g2 = gamma_fn(1.0 + 2.0 / shape_);
  return scale_ * scale_ * (g2 - g1 * g1);
}

std::string Weibull::describe() const {
  std::ostringstream os;
  os << "Weibull(shape=" << shape_ << ", scale=" << scale_ << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// LogNormal
// ---------------------------------------------------------------------------

LogNormal::LogNormal(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  require(std::isfinite(mu), "LogNormal: mu must be finite");
  require(sigma > 0.0 && std::isfinite(sigma), "LogNormal: sigma must be positive and finite");
}

double LogNormal::pdf(double x) const { return x <= 0.0 ? 0.0 : std::exp(log_pdf(x)); }

double LogNormal::log_pdf(double x) const {
  if (x <= 0.0) return -kInf;
  const double z = (std::log(x) - mu_) / sigma_;
  return -0.5 * z * z - std::log(x * sigma_ * std::sqrt(2.0 * 3.14159265358979323846));
}

double LogNormal::cdf(double x) const {
  return x <= 0.0 ? 0.0 : normal_cdf((std::log(x) - mu_) / sigma_);
}

double LogNormal::quantile(double p) const {
  require(p > 0.0 && p < 1.0, "LogNormal::quantile: p must be in (0,1)");
  return std::exp(mu_ + sigma_ * normal_quantile(p));
}

double LogNormal::sample(Rng& rng) const {
  return std::exp(mu_ + sigma_ * sample_standard_normal(rng));
}

double LogNormal::mean() const { return std::exp(mu_ + 0.5 * sigma_ * sigma_); }

double LogNormal::variance() const {
  const double s2 = sigma_ * sigma_;
  return (std::exp(s2) - 1.0) * std::exp(2.0 * mu_ + s2);
}

std::string LogNormal::describe() const {
  std::ostringstream os;
  os << "LogNormal(mu=" << mu_ << ", sigma=" << sigma_ << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// Poisson
// ---------------------------------------------------------------------------

Poisson::Poisson(double mean) : mean_(mean) {
  require(mean >= 0.0 && std::isfinite(mean), "Poisson: mean must be nonnegative and finite");
}

double Poisson::pmf(std::uint64_t k) const {
  if (mean_ == 0.0) return k == 0 ? 1.0 : 0.0;
  const double kd = static_cast<double>(k);
  return std::exp(kd * std::log(mean_) - mean_ - lgamma_fn(kd + 1.0));
}

double Poisson::cdf(std::uint64_t k) const {
  if (mean_ == 0.0) return 1.0;
  // P(X <= k) = Q(k+1, mean).
  return gamma_q(static_cast<double>(k) + 1.0, mean_);
}

std::uint64_t Poisson::sample(Rng& rng) const {
  if (mean_ == 0.0) return 0;
  if (mean_ < 30.0) {
    // Knuth inversion by multiplication.
    const double limit = std::exp(-mean_);
    double prod = rng.uniform_pos();
    std::uint64_t k = 0;
    while (prod > limit) {
      prod *= rng.uniform_pos();
      ++k;
    }
    return k;
  }
  // Exact gamma-splitting recursion (Ahrens–Dieter): let m = floor(7u/8 * mean)
  // and X ~ Gamma(m, 1) be the arrival time of the m-th event of a unit-rate
  // Poisson process. If X <= mean, m events happened by X and the remainder of
  // the window contributes Poisson(mean - X); otherwise exactly the events
  // strictly before the m-th fall in the window, thinned Binomial(m-1, mean/X)
  // by the conditional uniformity of arrival times.
  const double m = std::floor(mean_ * 0.875);
  const double x = sample_standard_gamma(rng, m);
  if (x <= mean_) {
    return static_cast<std::uint64_t>(m) + Poisson(mean_ - x).sample(rng);
  }
  // Binomial(m - 1, mean / x) by direct Bernoulli summation; m is O(mean) but
  // this branch is rare and our simulator means are modest.
  const double p = mean_ / x;
  const std::uint64_t n = static_cast<std::uint64_t>(m) - 1;
  std::uint64_t k = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (rng.uniform() < p) ++k;
  }
  return k;
}

std::string Poisson::describe() const {
  std::ostringstream os;
  os << "Poisson(mean=" << mean_ << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// Samplers
// ---------------------------------------------------------------------------

double sample_standard_normal(Rng& rng) {
  // Box–Muller, one deviate per call (deterministic draw count).
  const double u1 = rng.uniform_pos();
  const double u2 = rng.uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * 3.14159265358979323846 * u2);
}

namespace {

/// Samples Gamma(shape, 1) via Marsaglia–Tsang; valid for any shape > 0.
double sample_standard_gamma(Rng& rng, double shape) {
  if (!(shape > 0.0)) throw std::invalid_argument("sample_standard_gamma: shape must be > 0");
  if (shape < 1.0) {
    // Boost shape by 1 and scale back (Marsaglia–Tsang augmentation).
    const double u = rng.uniform_pos();
    return sample_standard_gamma(rng, shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia–Tsang squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = sample_standard_normal(rng);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.uniform_pos();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

}  // namespace

}  // namespace storsubsim::stats
