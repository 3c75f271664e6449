// Simulated-time conventions shared by the model, simulator and analysis.
//
// Simulation time is measured in seconds as a double, with 0 = the start of
// the study window (January 2004 in the paper). The study horizon is 44
// months (through August 2007).
#pragma once

#include <algorithm>

namespace storsubsim::model {

inline constexpr double kSecondsPerHour = 3600.0;
inline constexpr double kSecondsPerDay = 86400.0;
inline constexpr double kSecondsPerYear = 365.25 * kSecondsPerDay;
inline constexpr double kSecondsPerMonth = kSecondsPerYear / 12.0;

/// Study window length: 44 months (1/2004 - 8/2007).
inline constexpr double kStudyMonths = 44.0;
inline constexpr double kStudyHorizonSeconds = kStudyMonths * kSecondsPerMonth;

/// Proactive data-verification scrub period: the storage layer probes every
/// disk hourly, so detection lags occurrence by at most one hour (paper §2.5).
inline constexpr double kScrubPeriodSeconds = kSecondsPerHour;

inline constexpr double years(double seconds) { return seconds / kSecondsPerYear; }
inline constexpr double from_years(double y) { return y * kSecondsPerYear; }

/// Exposure of a disk record installed at `install` and removed at `remove`,
/// in years, clipped to the study window [0, horizon]: the one rule every
/// disk-year sum (fleet, exposure table, Source) adds.
inline double exposure_years(double install, double remove, double horizon) {
  const double start = std::max(0.0, install);
  const double end = std::min(horizon, remove);
  return end > start ? years(end - start) : 0.0;
}

}  // namespace storsubsim::model
