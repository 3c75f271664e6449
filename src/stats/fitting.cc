#include "stats/fitting.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "stats/special_functions.h"
#include "stats/summary.h"

namespace storsubsim::stats {

namespace {

void require_positive_sample(std::span<const double> xs, const char* who) {
  if (xs.empty()) throw std::invalid_argument(std::string(who) + ": empty sample");
  for (const double x : xs) {
    if (!(x > 0.0) || !std::isfinite(x)) {
      throw std::invalid_argument(std::string(who) + ": sample must be positive and finite");
    }
  }
}

}  // namespace

FitResult fit_exponential_mle(std::span<const double> xs) {
  require_positive_sample(xs, "fit_exponential_mle");
  const double m = mean_of(xs);
  FitResult fit;
  fit.param1 = 1.0 / m;
  fit.converged = true;
  fit.iterations = 0;
  fit.log_likelihood = log_likelihood(Exponential(fit.param1), xs);
  return fit;
}

FitResult fit_gamma_mle(std::span<const double> xs) {
  require_positive_sample(xs, "fit_gamma_mle");
  const double m = mean_of(xs);
  double mean_log = 0.0;
  for (const double x : xs) mean_log += std::log(x);
  mean_log /= static_cast<double>(xs.size());

  // s = ln(mean) - mean(ln x) >= 0 by Jensen; solve ln(k) - digamma(k) = s.
  const double s = std::log(m) - mean_log;
  FitResult fit;
  if (s <= 1e-12) {
    // Nearly degenerate sample (no dispersion): cap the shape.
    fit.param1 = 1e6;
    fit.param2 = m / fit.param1;
    fit.converged = true;
    fit.log_likelihood = log_likelihood(Gamma(fit.param1, fit.param2), xs);
    return fit;
  }
  // Standard starting point (Minka 2002).
  double k = (3.0 - s + std::sqrt((s - 3.0) * (s - 3.0) + 24.0 * s)) / (12.0 * s);
  int iter = 0;
  for (; iter < 100; ++iter) {
    const double f = std::log(k) - digamma(k) - s;
    const double fp = 1.0 / k - trigamma(k);
    const double step = f / fp;
    double k_new = k - step;
    if (k_new <= 0.0) k_new = 0.5 * k;
    if (std::fabs(k_new - k) < 1e-12 * (1.0 + k)) {
      k = k_new;
      ++iter;
      break;
    }
    k = k_new;
  }
  fit.param1 = k;
  fit.param2 = m / k;
  fit.converged = iter < 100;
  fit.iterations = iter;
  fit.log_likelihood = log_likelihood(Gamma(fit.param1, fit.param2), xs);
  return fit;
}

FitResult fit_weibull_mle(std::span<const double> xs) {
  require_positive_sample(xs, "fit_weibull_mle");
  const double n = static_cast<double>(xs.size());
  double mean_log = 0.0;
  for (const double x : xs) mean_log += std::log(x);
  mean_log /= n;

  // Profile-likelihood equation in the shape k:
  //   g(k) = sum(x^k ln x)/sum(x^k) - 1/k - mean(ln x) = 0.
  auto g_and_gprime = [&](double k, double& g, double& gp) {
    double sk = 0.0, skl = 0.0, skl2 = 0.0;
    for (const double x : xs) {
      const double lx = std::log(x);
      const double xk = std::pow(x, k);
      sk += xk;
      skl += xk * lx;
      skl2 += xk * lx * lx;
    }
    const double r = skl / sk;
    g = r - 1.0 / k - mean_log;
    gp = (skl2 / sk) - r * r + 1.0 / (k * k);
  };

  // Start from the moment-style guess via the coefficient of variation of
  // ln x: k0 ~ 1.2 / stddev(ln x).
  Accumulator log_acc;
  for (const double x : xs) log_acc.add(std::log(x));
  double k = log_acc.stddev() > 0.0 ? 1.2 / log_acc.stddev() : 1.0;
  if (!(k > 0.0) || !std::isfinite(k)) k = 1.0;

  FitResult fit;
  int iter = 0;
  for (; iter < 200; ++iter) {
    double g, gp;
    g_and_gprime(k, g, gp);
    if (!(gp > 0.0) || !std::isfinite(g)) break;
    double k_new = k - g / gp;
    if (k_new <= 0.0) k_new = 0.5 * k;
    if (std::fabs(k_new - k) < 1e-12 * (1.0 + k)) {
      k = k_new;
      ++iter;
      break;
    }
    k = k_new;
  }
  double sk = 0.0;
  for (const double x : xs) sk += std::pow(x, k);
  const double lambda = std::pow(sk / n, 1.0 / k);
  fit.param1 = k;
  fit.param2 = lambda;
  fit.converged = iter < 200;
  fit.iterations = iter;
  fit.log_likelihood = log_likelihood(Weibull(k, lambda), xs);
  return fit;
}

Exponential to_exponential(const FitResult& fit) { return Exponential(fit.param1); }

Gamma to_gamma(const FitResult& fit) { return Gamma(fit.param1, fit.param2); }

Weibull to_weibull(const FitResult& fit) { return Weibull(fit.param1, fit.param2); }

double log_likelihood(const Exponential& d, std::span<const double> xs) {
  double ll = 0.0;
  for (const double x : xs) ll += d.log_pdf(x);
  return ll;
}

double log_likelihood(const Gamma& d, std::span<const double> xs) {
  double ll = 0.0;
  for (const double x : xs) ll += d.log_pdf(x);
  return ll;
}

double log_likelihood(const Weibull& d, std::span<const double> xs) {
  double ll = 0.0;
  for (const double x : xs) ll += d.log_pdf(x);
  return ll;
}

}  // namespace storsubsim::stats
