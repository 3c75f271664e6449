// Special mathematical functions used by the distribution and inference code.
//
// All functions are pure, thread-safe, and defined for the real domains the
// statistics layer needs. Accuracy targets ~1e-10 relative error on the
// interior of each domain, which is ample for failure-rate inference.
#pragma once

namespace storsubsim::stats {

/// Natural log of the gamma function, x > 0. (Lanczos approximation.)
double lgamma_fn(double x);

/// Gamma function, x > 0. Overflows to +inf for x > ~171.
double gamma_fn(double x);

/// Digamma (psi) function, x > 0: d/dx ln Gamma(x).
double digamma(double x);

/// Trigamma function, x > 0: d^2/dx^2 ln Gamma(x).
double trigamma(double x);

/// Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a),
/// a > 0, x >= 0. Monotone from 0 to 1 in x.
double gamma_p(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double gamma_q(double a, double x);

/// Inverse of gamma_p in x for fixed a: returns x with P(a, x) = p.
double gamma_p_inv(double a, double p);

/// Standard normal CDF.
double normal_cdf(double z);

/// Inverse standard normal CDF (Acklam's rational approximation + one
/// Halley refinement). p in (0, 1).
double normal_quantile(double p);

/// Regularized incomplete beta I_x(a, b); a, b > 0; x in [0, 1].
// storsim-lint: allow(unused-export) reason=test seam: BetaInc.* check the incomplete beta student_t_two_sided_p evaluates
double beta_inc(double a, double b, double x);

/// Two-sided p-value for a Student-t statistic.
// storsim-lint: allow(unused-export) reason=test seam: StudentT.* check the t CDF student_t_quantile inverts through it
double student_t_two_sided_p(double t, double nu);

/// Student-t quantile (inverse CDF), p in (0, 1).
double student_t_quantile(double p, double nu);

/// Chi-square upper tail probability with k degrees of freedom.
double chi_square_sf(double x, double k);

/// Chi-square quantile: x with CDF(x; k) = p.
double chi_square_quantile(double p, double k);

}  // namespace storsubsim::stats
