// Classical analytic RAID reliability (the model the paper challenges).
//
// Patterson/Gibson/Katz-style Markov math computes the expected time to a
// group-defeating multi-failure under two assumptions the paper's data
// violates: failures are independent and exponentially distributed. This
// module implements that math so the simulated (correlated) reality can be
// compared against the classical prediction — see
// `bench/raid_vulnerability` and `core/raid_vulnerability` for the measured
// side.
#pragma once

#include <cstddef>

namespace storsubsim::core {

struct RaidGroupModel {
  std::size_t disks = 8;                 ///< data + parity disks in the group
  double disk_afr_fraction = 0.009;      ///< per-disk annual failure prob (e.g. 0.009)
  double repair_hours = 24.0;            ///< mean time to rebuild/replace one disk
};

/// Probability that a group suffers a defeating multi-failure within
/// `years` (exponential approximation: 1 - exp(-t / MTTDL)), from the mean
/// time to data loss (MTTDL) of single-parity RAID (RAID4/5),
/// mu / (n (n-1) lambda^2) for repair rate mu >> lambda, or of double-parity
/// RAID (RAID6), mu^2 / (n (n-1) (n-2) lambda^3).
double defeat_probability_single_parity(const RaidGroupModel& model, double years);
double defeat_probability_double_parity(const RaidGroupModel& model, double years);

}  // namespace storsubsim::core
