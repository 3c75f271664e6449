// Streaming summary statistics (Welford accumulators) and small helpers.
#pragma once

#include <cstddef>
#include <span>

namespace storsubsim::stats {

/// Numerically stable streaming accumulator for mean/variance/extremes.
class Accumulator {
 public:
  void add(double x);
  // storsim-lint: allow(unused-export) reason=deferred: only Accumulator.Merge* tests call it
  void merge(const Accumulator& other);

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

/// Weighted variant: each observation carries a nonnegative weight
/// (e.g. exposure time in device-years).
class WeightedAccumulator {
 public:
  void add(double x, double weight);

  double mean() const;
  /// Frequency-weighted population variance.
  double variance() const;
  double stddev() const;
  std::size_t count() const { return n_; }

 private:
  std::size_t n_ = 0;
  double w_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// One-shot mean over a span.
double mean_of(std::span<const double> xs);

}  // namespace storsubsim::stats
