// Annualized failure rates with exposure-time accounting.
//
// AFR = events / disk-years x 100%, where a disk-year is accrued only while
// a disk record is actually installed inside the study window — exactly how
// the paper accounts for replaced disks ("we account for that in our
// analysis by calculating the life time of each individual disk", Table 1).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/source.h"
#include "stats/intervals.h"

namespace storsubsim::core {

struct AfrBreakdown {
  std::string label;
  double disk_years = 0.0;
  std::array<std::size_t, 4> events{};  // indexed by FailureType

  std::size_t total_events() const;
  /// AFR contribution of one failure type, percent per disk-year.
  double afr_pct(model::FailureType type) const;
  /// Whole-subsystem AFR (all four types), percent per disk-year.
  double total_afr_pct() const;
  /// Fraction of subsystem failures of this type, in [0, 1].
  double share(model::FailureType type) const;
  /// Garwood (exact Poisson) CI on one type's AFR percentage.
  stats::Interval afr_ci(model::FailureType type, double confidence) const;
};

/// AFR of the whole cohort — the unified entry point. Dataset-backed
/// sources walk the in-memory events; store-backed sources read the column
/// spans and the pre-computed exposure table, which the writer accumulated
/// in the same order as Dataset::disk_exposure_years — the two paths are
/// bit-identical (pinned by tests/core/source_test.cc).
AfrBreakdown compute_afr(const Source& source, std::string label = {});

/// AFR broken down by system class (paper Figure 4). Classes with no
/// systems are skipped identically on both backends.
std::vector<AfrBreakdown> afr_by_class(const Source& source);

// The pre-Source per-backend overloads (compute_afr(Dataset&), ...) were
// retired in the AnalysisRequest redesign; pass any backend through the
// implicit Source conversions above. storsim_lint's analysis-overload rule
// rejects reintroduction (docs/static-analysis.md).

/// AFR by disk model within one class+shelf cohort (paper Figure 5 panels).
std::vector<AfrBreakdown> afr_by_disk_model(const Dataset& dataset);

/// AFR by shelf enclosure model within a cohort (paper Figure 6 panels).
std::vector<AfrBreakdown> afr_by_shelf_model(const Dataset& dataset);

/// AFR by path configuration (paper Figure 7 panels).
std::vector<AfrBreakdown> afr_by_path_config(const Dataset& dataset);

/// Cross-environment stability of a statistic (paper Finding 4): for each
/// disk model appearing in >= 2 (class, shelf-model) environments, the mean,
/// standard deviation and relative std-dev of the per-environment values.
struct StabilityRow {
  std::string disk_model;
  std::size_t environments = 0;
  double mean_disk_afr = 0.0;
  double rel_stddev_disk_afr = 0.0;  ///< stddev / mean of the disk-failure AFR
  double mean_subsystem_afr = 0.0;
  double rel_stddev_subsystem_afr = 0.0;
};

std::vector<StabilityRow> afr_stability_by_disk_model(const Dataset& dataset);

}  // namespace storsubsim::core
