// Canned experiment scenarios.
//
// Each paper exhibit is regenerated from one of these entry points, which
// bundle a fleet configuration with simulation parameters. The ablation
// scenarios vary one design dimension (RAID-group shelf span, correlation
// mechanisms) while holding everything else fixed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/fleet_config.h"
#include "sim/params.h"
#include "sim/simulator.h"

namespace storsubsim::sim {

/// Runs the full calibrated 4-class fleet at the given scale.
FleetSimulation run_standard(double scale = 1.0, std::uint64_t seed = 20080226);

/// Builds a single-cohort fleet for controlled experiments.
model::FleetConfig cohort_fleet(const model::CohortSpec& cohort, double scale,
                                std::uint64_t seed);

/// Ablation: one near-line-like cohort with the RAID span forced to `span`
/// shelves. Used to show burstiness within RAID groups falling as span grows
/// (paper Finding 9 generalized).
FleetSimulation run_span_ablation(std::size_t span, double scale, std::uint64_t seed,
                                  const SimParams& params = SimParams::standard());

/// Which correlation mechanisms to keep in a knockout run.
struct MechanismToggles {
  bool shelf_badness = true;       // static shelf heterogeneity
  bool hawkes = true;              // disk-failure triggering
  bool environment_windows = true; // cooling episodes
  bool interconnect_clusters = true;  // multi-disk fault clusters
  bool driver_windows = true;      // protocol bug epochs
  bool congestion_windows = true;  // performance episodes

  std::string describe() const;
};

/// Applies knockouts to a parameter set, preserving calibrated mean rates:
/// disabling a mechanism redistributes its probability mass into the
/// homogeneous base rate rather than deleting it.
// storsim-lint: allow(unused-export) reason=test seam: ApplyToggles.* check run_mechanism_ablation's knockouts without a simulation
SimParams apply_toggles(SimParams params, const MechanismToggles& toggles);

/// Ablation: the standard fleet with selected mechanisms knocked out.
FleetSimulation run_mechanism_ablation(const MechanismToggles& toggles, double scale,
                                       std::uint64_t seed);

}  // namespace storsubsim::sim
