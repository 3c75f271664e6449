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

/// AFR of the whole cohort — the unified entry point: the Source's event
/// rows over its disk-years (Source::disk_years, bit-identical on every
/// backend; pinned by tests/core/source_test.cc).
AfrBreakdown compute_afr(const Source& source, std::string label = {});

/// AFR broken down by system class (paper Figure 4), from one event walk.
/// Classes with no systems in the cohort are skipped.
std::vector<AfrBreakdown> afr_by_class(const Source& source);

/// AFR by disk model within one class+shelf cohort (paper Figure 5 panels).
std::vector<AfrBreakdown> afr_by_disk_model(const Source& source);

/// AFR by path configuration (paper Figure 7 panels).
std::vector<AfrBreakdown> afr_by_path_config(const Source& source);

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

std::vector<StabilityRow> afr_stability_by_disk_model(const Source& source);

}  // namespace storsubsim::core
