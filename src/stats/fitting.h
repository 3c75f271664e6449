// Maximum-likelihood fitters for the distributions the
// paper fits to time-between-failure samples (Figure 9): Exponential, Gamma,
// and Weibull.
#pragma once

#include <span>

#include "stats/distributions.h"

namespace storsubsim::stats {

/// Result of a distribution fit: parameters plus the attained log-likelihood
/// (for model comparison) and convergence status.
struct FitResult {
  double param1 = 0.0;       // rate (exp) / shape (gamma, weibull)
  double param2 = 0.0;       // unused (exp) / scale (gamma, weibull)
  double log_likelihood = 0.0;
  bool converged = false;
  int iterations = 0;
};

/// MLE for Exponential: rate = n / sum(x). Requires all x >= 0, at least one
/// x > 0.
FitResult fit_exponential_mle(std::span<const double> xs);

/// MLE for Gamma(shape, scale) by Newton iteration on the digamma equation
/// ln(shape) - digamma(shape) = ln(mean) - mean(ln x). Requires x > 0.
FitResult fit_gamma_mle(std::span<const double> xs);

/// MLE for Weibull(shape, scale) by Newton iteration on the profile
/// likelihood in the shape parameter. Requires x > 0.
FitResult fit_weibull_mle(std::span<const double> xs);

/// Convenience constructors from fit results.
Exponential to_exponential(const FitResult& fit);
Gamma to_gamma(const FitResult& fit);
Weibull to_weibull(const FitResult& fit);

/// Log-likelihood of a sample under each distribution (for reporting).
double log_likelihood(const Exponential& d, std::span<const double> xs);
double log_likelihood(const Gamma& d, std::span<const double> xs);
double log_likelihood(const Weibull& d, std::span<const double> xs);

}  // namespace storsubsim::stats
