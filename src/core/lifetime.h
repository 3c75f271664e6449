// Disk lifetime analysis: survival curves and age-dependent hazard from the
// dataset's install/remove records and disk-failure events.
//
// Complements the time-between-failures view (Figure 9) with the per-device
// view: is the disk hazard constant with age (the assumption behind the
// memoryless models), does the data show infant mortality or wear-out, and
// what fraction of disks survive the study (heavily censored — why the
// Kaplan-Meier machinery is needed).
#pragma once

#include <vector>

#include "core/source.h"
#include "stats/survival.h"

namespace storsubsim::core {

/// Builds (duration, failed) observations per disk record in the cohort:
/// duration is the record's observed lifetime (clipped to the study window);
/// `event` is true iff a *disk* failure was recorded for that disk. Records
/// alive at the horizon — the overwhelming majority — are right-censored.
/// The unified entry point: one walk of the Source's disk rows, in disk-id
/// order on every backend — the same observations either way.
std::vector<stats::SurvivalObservation> disk_lifetime_observations(const Source& source);

struct LifetimeReport {
  stats::KaplanMeier survival;
  std::vector<stats::HazardBin> hazard_by_age;
  std::size_t disks = 0;
  std::size_t failures = 0;
  double censored_fraction = 0.0;
};

/// Fits the survival curve and the age-binned hazard. `age_edges_days`
/// defaults to {0, 30, 90, 180, 365, 730, 1340} when empty.
LifetimeReport disk_lifetime_report(const Source& source,
                                    std::vector<double> age_edges_days = {});

}  // namespace storsubsim::core
