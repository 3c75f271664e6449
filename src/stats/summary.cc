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

void Accumulator::merge(const Accumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

double Accumulator::mean() const { return n_ == 0 ? 0.0 : mean_; }

double Accumulator::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::sum() const { return mean_ * static_cast<double>(n_); }

void WeightedAccumulator::add(double x, double weight) {
  if (weight <= 0.0) return;
  ++n_;
  w_ += weight;
  const double delta = x - mean_;
  mean_ += delta * weight / w_;
  m2_ += weight * delta * (x - mean_);
}

double WeightedAccumulator::mean() const { return w_ == 0.0 ? 0.0 : mean_; }

double WeightedAccumulator::variance() const { return w_ == 0.0 ? 0.0 : m2_ / w_; }

double WeightedAccumulator::stddev() const { return std::sqrt(variance()); }

double mean_of(std::span<const double> xs) {
  Accumulator acc;
  for (const double x : xs) acc.add(x);
  return acc.mean();
}

}  // namespace storsubsim::stats
