// Fleet blueprints.
//
// A FleetConfig declares cohorts — groups of systems sharing a system class,
// shelf enclosure model and disk-model mix — plus global knobs (study
// horizon, scale, seed). `standard_fleet_config()` is calibrated to the
// paper's Table 1 populations and Figure 5 class x shelf x disk-model
// combinations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model/disk_model.h"
#include "model/enums.h"
#include "model/shelf_model.h"
#include "model/time.h"

namespace storsubsim::model {

/// One entry of a cohort's disk-model mix: systems in the cohort adopt
/// `model` with probability proportional to `weight`.
struct DiskMixEntry {
  DiskModelName model;
  double weight = 1.0;
};

/// Blueprint for one cohort of similar systems.
struct CohortSpec {
  std::string label;  ///< e.g. "low-end/shelf-A"
  SystemClass cls = SystemClass::kLowEnd;
  ShelfModelName shelf_model{'A'};
  std::vector<DiskMixEntry> disk_mix;

  std::size_t num_systems = 100;
  /// Mean shelf count per system; actual counts are sampled around this with
  /// a minimum of 1 shelf.
  double mean_shelves_per_system = 2.0;
  /// Mean occupied slots per shelf (out of 14).
  double mean_disks_per_shelf = 11.0;

  RaidType raid_type = RaidType::kRaid4;
  /// Fraction of RAID groups built as RAID6 instead of `raid_type`.
  double raid6_fraction = 0.3;
  std::size_t raid_group_size = 8;
  /// Target number of shelves a RAID group spans (paper average: ~3).
  std::size_t raid_span_shelves = 3;

  /// Fraction of systems configured with dual independent interconnects.
  double dual_path_fraction = 0.0;
};

struct FleetConfig {
  std::vector<CohortSpec> cohorts;
  double horizon_seconds = kStudyHorizonSeconds;
  /// Multiplier on every cohort's num_systems (e.g. 0.1 for a quick run).
  /// Statistical shapes are scale-invariant; absolute event counts scale.
  double scale = 1.0;
  std::uint64_t seed = 20080226;  // FAST'08 opening day

  /// Latest deployment time as a fraction of the horizon. Systems deploy
  /// in [0, deploy_window_fraction * horizon]; exposure is accounted from
  /// deployment.
  double deploy_window_fraction = 0.5;
  /// Shape of the deployment-time distribution inside the window:
  /// deploy = window * u^(1/skew). 1.0 = uniform; > 1 back-loads deployments
  /// (a growing installed base — use ~2.7 with window 1.0 to reproduce the
  /// ~1 disk-year average exposure implied by the paper's Table 1 counts);
  /// < 1 front-loads them.
  double deploy_skew = 1.0;

  std::size_t scaled_systems(const CohortSpec& cohort) const;
  std::size_t total_systems() const;
};

/// The full 4-class fleet calibrated to Table 1 of the paper (≈39k systems,
/// ≈155k shelves, ≈1.8M disks at scale = 1).
FleetConfig standard_fleet_config(double scale = 1.0, std::uint64_t seed = 20080226);

/// Validates invariants (nonempty mixes, sane sizes); throws
/// std::invalid_argument with a descriptive message on violation.
void validate(const FleetConfig& config);

}  // namespace storsubsim::model
