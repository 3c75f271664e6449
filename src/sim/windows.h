// Episodic modulation windows and piecewise-constant-rate event sampling.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "sim/params.h"
#include "stats/rng.h"

namespace storsubsim::sim {

/// A half-open interval [start, end) during which a hazard is multiplied.
struct Window {
  double start = 0.0;
  double end = 0.0;
  double multiplier = 1.0;
};

/// Generates non-overlapping windows over [0, horizon): arrivals Poisson at
/// process.per_year, durations LogNormal with the given mean; an arrival
/// inside an active window is skipped. Sorted by start.
std::vector<Window> generate_windows(const WindowProcess& process, double horizon,
                                     stats::Rng& rng);

/// The hazard multiplier active at time t (1.0 outside windows).
double multiplier_at(std::span<const Window> windows, double t);

/// Samples events of a Poisson process whose rate is
/// base_rate * multiplier(t), where multiplier comes from `windows`.
///
/// `sample_after(t)` returns the first event strictly after t, or nullopt if
/// none occurs before `horizon`. Calls must be made with non-decreasing `t`
/// (the sampler keeps a window cursor); construct a fresh sampler to rewind.
class ModulatedPoissonSampler {
 public:
  ModulatedPoissonSampler(double base_rate_per_second, std::span<const Window> windows,
                          double horizon);

  std::optional<double> sample_after(double t, stats::Rng& rng);

  double base_rate() const { return base_rate_; }

 private:
  double base_rate_;
  std::span<const Window> windows_;
  double horizon_;
  std::size_t cursor_ = 0;
};

}  // namespace storsubsim::sim
