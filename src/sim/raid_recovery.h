// RAID recovery replay: from failure streams to data-loss and availability.
//
// The paper motivates its study with exactly this question: "accurate
// estimation of storage failure rate can help system designers decide how
// many resources should be used to tolerate failures and to meet certain
// service-level agreement (SLA) metrics (e.g., data availability)". This
// module replays a simulated failure history through per-group RAID state
// machines under a configurable recovery policy and reports what actually
// matters downstream: data-loss incidents, degraded time, and exposure
// windows — so policies (RAID4 vs RAID6, hot-spare counts, rebuild speed)
// can be compared under *correlated* failures rather than the classical
// independence math.
//
// Model:
//  * A disk failure makes the member unavailable from its occurrence until
//    its rebuild completes. Rebuild starts when the failure is detected AND
//    a hot spare is free in the owning system's pool; consumed spares are
//    restocked after a replenishment delay.
//  * Non-disk subsystem failures (interconnect/protocol/performance) make
//    the member unavailable transiently (retries, path loss, resets).
//  * A RAID4 group loses data when 2 members are concurrently unavailable;
//    RAID6 at 3. After a loss the group is restored (from backup) and
//    continues — losses are counted as incidents.
#pragma once

#include <array>
#include <cstdint>

#include "model/fleet.h"
#include "sim/simulator.h"

namespace storsubsim::sim {

struct RecoveryPolicy {
  /// Time to reconstruct one disk onto a spare once the rebuild starts.
  double rebuild_hours = 12.0;
  /// Hot spares per system (0 = order on demand: every rebuild waits for
  /// the replenishment delay).
  std::size_t hot_spares_per_system = 2;
  /// Restocking delay for a consumed spare (also the wait when the pool is
  /// empty).
  double spare_replenish_days = 3.0;
  /// How long a non-disk subsystem failure keeps the member unavailable.
  double transient_outage_hours = 1.0;
  /// Whether non-disk failures count toward concurrent-unavailability (set
  /// false for the classical disk-only analysis).
  bool count_transient_failures = true;
};

struct RecoveryResult {
  RecoveryPolicy policy;

  std::size_t groups = 0;
  double group_years = 0.0;

  /// Parity-defeating concurrency incidents, by RAID type of the group.
  std::size_t data_loss_events_raid4 = 0;
  std::size_t data_loss_events_raid6 = 0;

  /// Time any member of a group was unavailable (union over members).
  double degraded_group_hours = 0.0;
  /// Time a group ran with zero remaining redundancy (RAID4: >=1
  /// unavailable; RAID6: >=2) without having lost data yet.
  double zero_redundancy_hours = 0.0;

  /// Count of rebuilds that had to wait for a spare.
  std::size_t rebuilds_stalled_on_spares = 0;
  std::size_t rebuilds_total = 0;

  /// Data-loss incidents per 1000 group-years (the fleet-level SLA number).
  double loss_rate_per_kilo_group_year() const {
    const auto losses = static_cast<double>(data_loss_events_raid4 + data_loss_events_raid6);
    return group_years > 0.0 ? 1000.0 * losses / group_years : 0.0;
  }
  /// Fraction of group time spent degraded.
  double degraded_fraction() const {
    return group_years > 0.0 ? degraded_group_hours / (group_years * 8766.0) : 0.0;
  }
};

/// Replays the simulation's failures through every RAID group. Deterministic
/// and read-only with respect to the fleet.
RecoveryResult replay_raid_recovery(const model::Fleet& fleet, const SimResult& result,
                                    const RecoveryPolicy& policy);

}  // namespace storsubsim::sim
