// Simulation parameters: the generative failure model.
//
// Every knob here maps to a causal mechanism the paper identifies
// (Section 5.2.3 "Causes of Correlation"):
//
//  * Shelf badness (static Gamma multiplier) — shared cooling/temperature
//    environment makes some shelves persistently worse for the disks they
//    host; this produces disk-failure self-correlation (Finding 11) without
//    strong time-burstiness.
//  * Hawkes triggering — a disk failure slightly raises the short-term
//    failure probability of its shelf-mates (shared stress), adding the mild
//    temporal locality the paper observes for disk failures (Figure 9).
//  * Interconnect fault clusters — one physical fault (cable/HBA/backplane)
//    makes several disks "missing" at once; this is why physical
//    interconnect failures are the burstiest type.
//  * Driver-bug windows (per system) — drivers are updated around the same
//    time; a buggy version elevates protocol failures for weeks.
//  * Congestion windows (per shelf) — partial failures and recovery load
//    elevate performance failures for hours.
//
// Rates are expressed as annualized percentages per disk-year to match the
// paper's figures; the simulator converts to per-second hazards internally.
#pragma once

#include <array>
#include <cstdint>

#include "model/enums.h"
#include "model/time.h"

namespace storsubsim::sim {

/// An episodic modulation process: windows arrive Poisson at `per_year`
/// (per scope-year), last LogNormal(mean_duration_seconds, sigma_log), and
/// multiply the affected hazard by `multiplier` while active.
struct WindowProcess {
  double per_year = 0.0;
  double mean_duration_seconds = 0.0;
  double sigma_log = 0.5;
  double multiplier = 1.0;

  /// Long-run average multiplier, 1 + duty cycle * (multiplier - 1) with the
  /// duty cycle (the fraction of time inside windows) per_year * mean
  /// duration; base rates are divided by this so the calibrated AFR is
  /// preserved.
  double average_multiplier() const {
    return 1.0 + (per_year * mean_duration_seconds / model::kSecondsPerYear) * (multiplier - 1.0);
  }
};

/// Clustered "incident" process: a fraction of a failure type's events come
/// from incidents that hit several disks in quick succession (firmware roll-
/// outs gone wrong, shelf-wide congestion), rather than from the isolated
/// background process. Incident event times are spread LogNormal around the
/// incident start.
struct IncidentProcess {
  /// Fraction of the type's calibrated rate delivered through incidents.
  double clustered_fraction = 0.0;
  /// Per-disk hit probability within the incident's primary scope.
  double hit_prob = 0.3;
  /// Per-disk hit probability for the rest of the system (protocol
  /// incidents: the driver update touches every shelf, one interacts badly).
  double secondary_hit_prob = 0.0;
  /// LogNormal spread of individual failure times after the incident start.
  double spread_mean_seconds = 2.0 * model::kSecondsPerHour;
  double spread_sigma_log = 1.0;
};

struct SimParams {
  // --- disk failures -------------------------------------------------------
  /// Shape of the per-shelf static badness multiplier B ~ Gamma(shape,
  /// 1/shape) (mean 1). Smaller shape = heavier shelf-to-shelf heterogeneity
  /// = stronger disk-failure self-correlation. factor ~ 1 + 1/shape.
  double shelf_badness_shape = 0.35;
  /// Probability that a disk failure triggers one follow-on failure on a
  /// shelf-mate (non-cascading branching).
  double hawkes_branching = 0.03;
  /// LogNormal parameters of the trigger delay.
  double hawkes_delay_mean_seconds = 1.0 * model::kSecondsPerDay;
  double hawkes_delay_sigma_log = 1.8;
  /// Shelf environment episodes (cooling degradation): multiply disk-failure
  /// hazard of all disks in the shelf.
  WindowProcess environment{0.2, 2.0 * model::kSecondsPerDay, 0.7, 6.0};
  /// Infant mortality: hazard multiplier during the first
  /// `infant_period_seconds` of a disk's life (1.0 = disabled; the default
  /// keeps the disk hazard time-homogeneous, which is what produces the
  /// paper's Gamma-distributed interarrivals).
  double infant_multiplier = 1.0;
  double infant_period_seconds = 90.0 * model::kSecondsPerDay;

  // --- physical interconnect failures -------------------------------------
  /// Probability that a shelf-level interconnect fault makes any given disk
  /// in the shelf go missing.
  double pi_cluster_prob_shelf = 0.14;
  /// Probability that a path-level (HBA/cable) fault affects any given disk
  /// in the system.
  double pi_cluster_prob_path = 0.07;
  /// Fraction of path-level faults masked by an independent second path
  /// (active/passive multipathing). The shelf/backplane portion of the
  /// hazard (ShelfModelInfo::backplane_fraction) is never maskable.
  double dual_path_masking = 0.667;
  /// Per-system-class multiplier on the interconnect hazard (calibrated so
  /// single-path PI AFR matches Figures 4, 6, 7).
  std::array<double, 4> pi_class_multiplier = {0.62, 1.08, 0.827, 0.968};

  // --- protocol failures ----------------------------------------------------
  /// Base annualized protocol-failure rate (percent per disk-year) by class;
  /// multiplied by the disk model's protocol_hazard_multiplier.
  std::array<double, 4> protocol_base_afr_pct = {0.38, 0.34, 0.35, 0.31};
  /// Driver-bug windows, scoped per system; modulate the isolated portion.
  WindowProcess driver{0.12, 14.0 * model::kSecondsPerDay, 0.6, 40.0};
  /// Driver-rollout incidents, scoped per system with a primary shelf.
  IncidentProcess protocol_incidents{0.55, 0.20, 0.03,
                                     8.0 * model::kSecondsPerHour, 1.0};

  // --- performance failures -------------------------------------------------
  std::array<double, 4> performance_base_afr_pct = {0.22, 0.42, 0.32, 0.032};
  /// Congestion/recovery windows, scoped per shelf; modulate the isolated
  /// portion.
  WindowProcess congestion{0.5, 8.0 * model::kSecondsPerHour, 0.8, 60.0};
  /// Shelf-overload incidents (several disks miss deadlines together).
  IncidentProcess performance_incidents{0.50, 0.20, 0.0,
                                        4.0 * model::kSecondsPerHour, 1.0};

  // --- detection & repair ---------------------------------------------------
  /// Hourly proactive scrub: detection lags occurrence by U(0, scrub].
  double scrub_period_seconds = model::kScrubPeriodSeconds;
  /// Failed disks are replaced after a LogNormal delay (logistics).
  double repair_delay_mean_seconds = 1.0 * model::kSecondsPerDay;
  double repair_delay_sigma_log = 0.8;

  /// Calibrated default parameter set.
  static SimParams standard() { return SimParams{}; }
};

}  // namespace storsubsim::sim
