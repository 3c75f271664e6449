#include "stats/summary.h"

#include <cmath>
#include <limits>

namespace storsubsim::stats {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::mean() const { return n_ == 0 ? 0.0 : mean_; }

double Accumulator::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::sum() const { return mean_ * static_cast<double>(n_); }

double mean_of(std::span<const double> xs) {
  Accumulator acc;
  for (const double x : xs) acc.add(x);
  return acc.mean();
}

}  // namespace storsubsim::stats
