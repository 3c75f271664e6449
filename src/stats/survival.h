// Survival analysis with right-censoring.
//
// Disk lifetime data is censored: most disks outlive the study window, so
// naive lifetime averages are biased. The Kaplan-Meier estimator handles
// censoring exactly; the actuarial age-binned hazard estimator is what the
// age-dependence analyses use (is the hazard constant? is there infant
// mortality?).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace storsubsim::stats {

/// One observation: how long the subject was watched, and whether the watch
/// ended in the event (true) or in censoring (false).
struct SurvivalObservation {
  double duration = 0.0;
  bool event = false;
};

struct SurvivalPoint {
  double time = 0.0;        ///< event time
  double survival = 1.0;    ///< S(t) just after this event time
  std::size_t at_risk = 0;  ///< subjects at risk just before
  std::size_t events = 0;   ///< events at exactly this time
};

/// Product-limit (Kaplan-Meier) survival curve.
class KaplanMeier {
 public:
  /// Throws std::invalid_argument on a negative or NaN duration.
  ///
  /// Cost: O(n + e log e) time and O(e) extra space for n subjects of which
  /// e are events. Only the event durations are sorted; each subject is
  /// counted into the resulting grid of distinct event times through a
  /// bucket index over the grid's range, and the at-risk counts are suffix
  /// sums of those counts. The curve is bit-identical to sorting all n
  /// subjects and walking the ties. Disk cohorts are mostly censored (~3%
  /// events), so this is about one pass over the subjects.
  static KaplanMeier fit(std::span<const SurvivalObservation> observations);

  /// S(t): probability of surviving beyond t.
  double survival(double t) const;

  /// Smallest t with S(t) <= 0.5; +inf when the curve never reaches it
  /// (heavy censoring — the common case for disks).
  double median() const;

  /// Greenwood variance of S(t) (for confidence bands).
  double greenwood_variance(double t) const;

  const std::vector<SurvivalPoint>& curve() const { return points_; }
  std::size_t subjects() const { return n_; }
  std::size_t total_events() const { return events_; }

 private:
  std::vector<SurvivalPoint> points_;
  std::vector<double> greenwood_;  // cumulative sum d/(n(n-d)) per point
  std::size_t n_ = 0;
  std::size_t events_ = 0;
};

struct HazardBin {
  double age_lo = 0.0;
  double age_hi = 0.0;
  std::size_t events = 0;
  double exposure = 0.0;  ///< subject-time spent inside this age band
  /// Events per unit exposure (e.g. per subject-second if durations are in
  /// seconds).
  double rate() const { return exposure > 0.0 ? static_cast<double>(events) / exposure : 0.0; }
};

/// Actuarial piecewise-constant hazard: for each [edge_i, edge_{i+1}) age
/// band, events landing in the band divided by the exposure every subject
/// contributed to the band.
std::vector<HazardBin> hazard_by_age(std::span<const SurvivalObservation> observations,
                                     std::span<const double> edges);

}  // namespace storsubsim::stats
