// Failure prediction from component errors — the paper's proposed future
// work ("design storage failure prediction algorithms based on component
// errors"), built and evaluated on the simulated fleet.
//
// The predictor family is the one real storage stacks deploy (e.g. the
// proactive fail-out the paper mentions in §2.3): raise an alarm for a disk
// when at least `threshold` component errors of a given kind land within a
// trailing `window`. An alarm is a true prediction when the targeted failure
// type strikes that disk within the prediction `horizon`.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/source.h"
#include "sim/precursors.h"

namespace storsubsim::core {

/// Two deployable predictor families:
///  * count threshold — alarm when >= k errors land in a trailing window
///    (simple, what SMART-style fail-out rules use);
///  * EWMA rate — exponentially-weighted error-rate estimate crossing a
///    threshold (smoother, less sensitive to window edges).
enum class PredictorKind { kCountThreshold, kEwmaRate };

struct PredictorConfig {
  PredictorKind kind = PredictorKind::kCountThreshold;
  sim::PrecursorKind signal = sim::PrecursorKind::kMediumError;
  model::FailureType target = model::FailureType::kDisk;

  // --- count-threshold family ---
  /// Alarm when >= threshold signal events land within `window_seconds`.
  std::size_t threshold = 3;
  double window_seconds = 14.0 * model::kSecondsPerDay;

  // --- EWMA-rate family ---
  /// Decay time constant of the rate estimator.
  double ewma_tau_days = 7.0;
  /// Alarm when the estimated rate exceeds this many events per day.
  double rate_threshold_per_day = 0.35;

  /// An alarm is true if the target failure hits the disk within this long.
  double horizon_seconds = 30.0 * model::kSecondsPerDay;
};

struct PredictionOutcome {
  PredictorConfig config;

  std::size_t alarms = 0;
  std::size_t true_alarms = 0;
  std::size_t failures_total = 0;      ///< target failures in the cohort
  std::size_t failures_predicted = 0;  ///< preceded by an alarm within horizon

  /// Median time from the earliest in-horizon alarm to the failure.
  double median_lead_seconds = 0.0;
  /// Nuisance rate: alarms that predicted nothing, per disk-year.
  double false_alarms_per_disk_year = 0.0;

  double precision() const {
    return alarms == 0 ? 0.0
                       : static_cast<double>(true_alarms) / static_cast<double>(alarms);
  }
  double recall() const {
    return failures_total == 0 ? 0.0
                               : static_cast<double>(failures_predicted) /
                                     static_cast<double>(failures_total);
  }
};

/// Evaluates one predictor over the cohort's failure history and the
/// precursor stream; precursors of disks outside the cohort are ignored.
/// Alarms re-arm after each target failure of the disk or once the window
/// count falls back below the threshold.
PredictionOutcome evaluate_predictor(const Source& source,
                                     std::span<const sim::PrecursorEvent> precursors,
                                     const PredictorConfig& config);

/// Sweeps the alarm threshold (the precision/recall trade-off curve).
std::vector<PredictionOutcome> threshold_sweep(
    const Source& source, std::span<const sim::PrecursorEvent> precursors,
    PredictorConfig base, std::span<const std::size_t> thresholds);

}  // namespace storsubsim::core
