// Streaming summary statistics (Welford accumulators) and small helpers.
#pragma once

#include <cstddef>
#include <span>

namespace storsubsim::stats {

/// Numerically stable streaming accumulator for mean/variance/extremes.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Unbiased sample variance (n-1 denominator); 0 for n < 2.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One-shot mean over a span.
double mean_of(std::span<const double> xs);

}  // namespace storsubsim::stats
