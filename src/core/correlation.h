// Self-correlation of failures within shelves and RAID groups
// (paper Section 5.2, Figure 10).
//
// Method (paper §5.2.1-5.2.2): if failures were independent, the probability
// of a scope experiencing exactly two failures in a window T would satisfy
// P(2) = P(1)^2 / 2 (and generally P(N) = P(1)^N / N!). We measure the
// empirical P(1) and P(2) over scope-year windows and compare the empirical
// P(2) with the theoretical prediction; empirical >> theoretical means
// failures share causes.
#pragma once

#include <cstddef>
#include <vector>

#include "core/source.h"
#include "model/time.h"
#include "stats/hypothesis.h"
#include "stats/intervals.h"

namespace storsubsim::core {

struct CorrelationResult {
  Scope scope = Scope::kShelf;
  model::FailureType type = model::FailureType::kDisk;
  double window_seconds = 0.0;

  std::size_t windows_observed = 0;  ///< complete scope-windows in the field
  std::size_t windows_with_one = 0;
  std::size_t windows_with_two = 0;

  double empirical_p1() const;
  double empirical_p2() const;
  /// P(1)^2 / 2 — the independence prediction (paper equation 3).
  double theoretical_p2() const;
  /// Correlation strength: empirical P(2) / theoretical P(2). ~1 under
  /// independence; the paper reports ~6x for disk failures, 10-25x for the
  /// other types.
  double correlation_factor() const;

  /// Wilson CI on the empirical P(2).
  stats::Interval empirical_p2_ci(double confidence) const;
  /// One-vs-theory proportion test (the paper's t-test of empirical vs
  /// theoretical P(2)).
  stats::TTestResult independence_test() const;
};

/// Computes P(1)/P(2) statistics for one failure type — the unified entry
/// point. Each scope contributes floor(observed_time / window) complete
/// windows; a scope deployed for less than one window is excluded (paper:
/// "Only storage systems that have been in the field for one year or more
/// are considered"). Pure integer tallies over the Source's event and scope
/// rows, identical on every backend and cohort.
CorrelationResult failure_correlation(const Source& source, Scope scope,
                                      model::FailureType type,
                                      double window_seconds = model::kSecondsPerYear);

/// All four types at once.
std::vector<CorrelationResult> failure_correlation_all_types(
    const Source& source, Scope scope, double window_seconds = model::kSecondsPerYear);

/// The generalized check P(N) = P(1)^N / N! for N = 1..max_n (paper
/// equation 4): empirical vs theoretical window fractions.
struct MultiplicityRow {
  std::size_t n = 0;
  double empirical = 0.0;
  double theoretical = 0.0;
};

std::vector<MultiplicityRow> failure_multiplicity(const Source& source, Scope scope,
                                                  model::FailureType type, std::size_t max_n,
                                                  double window_seconds =
                                                      model::kSecondsPerYear);

/// Index of dispersion (variance-to-mean ratio) of per-scope-window failure
/// counts: exactly 1 for a homogeneous Poisson process, > 1 under clustering
/// or scope heterogeneity. A second, binning-free lens on Finding 11.
double dispersion_index(const Source& source, Scope scope, model::FailureType type,
                        double window_seconds = model::kSecondsPerYear);

/// Cross-type triggering: after a `trigger` failure in a scope, how often
/// does a `response` failure (of a different type) follow within `window`,
/// versus the homogeneous-independence baseline?
struct CrossTypeResult {
  model::FailureType trigger = model::FailureType::kDisk;
  model::FailureType response = model::FailureType::kDisk;
  Scope scope = Scope::kShelf;
  double window_seconds = 0.0;

  std::size_t triggers = 0;
  std::size_t triggers_followed = 0;  ///< trigger events with a response in-window

  /// Mean response rate per scope-second across the cohort (the null).
  double baseline_rate_per_scope_second = 0.0;

  double conditional_probability() const {
    return triggers == 0 ? 0.0
                         : static_cast<double>(triggers_followed) /
                               static_cast<double>(triggers);
  }
  /// Expected follow probability if responses were a homogeneous Poisson
  /// stream independent of the triggers.
  double baseline_probability() const;
  /// conditional / baseline; >> 1 means the trigger type foreshadows the
  /// response type within the scope.
  double lift() const;
};

CrossTypeResult cross_type_correlation(const Source& source, Scope scope,
                                       model::FailureType trigger,
                                       model::FailureType response, double window_seconds);

}  // namespace storsubsim::core
