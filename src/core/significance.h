// Cohort comparisons with statistical significance (paper Figures 6 and 7:
// shelf-model and multipathing effects on physical interconnect failures,
// significant at 99.5-99.9% confidence).
#pragma once

#include <string>

#include "core/afr.h"
#include "stats/hypothesis.h"
#include "stats/intervals.h"

namespace storsubsim::core {

struct CohortComparison {
  AfrBreakdown a;
  AfrBreakdown b;
  model::FailureType focus = model::FailureType::kPhysicalInterconnect;
  /// Poisson-rate z-test on the focus failure type: events k over exposure E
  /// per cohort (statistic + two-sided p).
  stats::TTestResult focus_test;
  stats::Interval focus_ci_a;     ///< CI on cohort A's focus AFR (percent)
  stats::Interval focus_ci_b;

  /// Relative reduction of the focus AFR going from A to B, in [0, 1].
  double focus_reduction() const;
  /// Relative reduction of the whole-subsystem AFR going from A to B.
  double total_reduction() const;
  bool significant_at(double confidence) const {
    return focus_test.significant_at(confidence);
  }
};

/// Compares two cohorts on one failure type at the given CI confidence.
CohortComparison compare_cohorts(const Source& cohort_a, std::string label_a,
                                 const Source& cohort_b, std::string label_b,
                                 model::FailureType focus, double ci_confidence);

}  // namespace storsubsim::core
