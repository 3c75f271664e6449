// Availability study: from failure statistics to SLA numbers.
//
//   $ ./build/examples/availability_study
//
// Scenario: an SRE team owns a fleet of mid-range systems and must answer
// "how many data-loss incidents per year should we budget for, and does the
// classical RAID math we put in the design doc agree with reality?". The
// study: simulate the fleet, replay its failures through the RAID recovery
// machinery, and compare against the Patterson-style analytic model fed the
// very same failure rates — the quantitative version of the paper's warning
// that independence-based resiliency math underestimates correlated risk.
#include <cmath>
#include <iostream>

#include "core/pipeline.h"
#include "core/raid_model.h"
#include "core/report.h"
#include "core/source.h"
#include "model/time.h"
#include "sim/raid_recovery.h"
#include "sim/scenario.h"

using namespace storsubsim;

int main() {
  model::CohortSpec cohort;
  cohort.label = "sla";
  cohort.cls = model::SystemClass::kMidRange;
  cohort.shelf_model = model::ShelfModelName{'B'};
  cohort.disk_mix = {{model::DiskModelName{'D', 2}, 1.0}};
  cohort.num_systems = 3000;
  cohort.mean_shelves_per_system = 6.0;
  cohort.mean_disks_per_shelf = 12.0;
  cohort.raid_group_size = 8;
  cohort.raid6_fraction = 0.5;
  cohort.raid_span_shelves = 3;
  auto fs = sim::simulate_fleet(sim::cohort_fleet(cohort, 1.0, 2024));
  const auto ds = core::dataset_in_memory(fs.fleet, fs.result);

  std::cout << "Fleet: " << fs.fleet.systems().size() << " systems, "
            << fs.fleet.raid_groups().size() << " RAID groups (50% RAID4 / 50% RAID6), "
            << core::Source(ds).event_records() << " subsystem failures over 44 months.\n\n";

  // --- what actually happens under the measured, correlated failures --------
  sim::RecoveryPolicy policy;  // 12 h rebuilds, 2 hot spares, 3-day restock
  const auto outcome = sim::replay_raid_recovery(fs.fleet, fs.result, policy);

  core::TextTable table({"metric", "value"});
  table.add_row({"group-years observed", core::fmt(outcome.group_years, 0)});
  table.add_row({"RAID4 data-loss incidents", std::to_string(outcome.data_loss_events_raid4)});
  table.add_row({"RAID6 data-loss incidents", std::to_string(outcome.data_loss_events_raid6)});
  table.add_row({"losses per 1000 group-years",
                 core::fmt(outcome.loss_rate_per_kilo_group_year(), 2)});
  table.add_row({"time degraded", core::fmt_pct(outcome.degraded_fraction(), 3)});
  table.add_row({"rebuilds stalled on spares",
                 std::to_string(outcome.rebuilds_stalled_on_spares) + " / " +
                     std::to_string(outcome.rebuilds_total)});
  table.print(std::cout);

  // --- what the design-doc math predicts -------------------------------------
  const double per_disk_rate =
      static_cast<double>(core::Source(ds).event_records()) / core::Source(ds).disk_years().total;
  core::RaidGroupModel analytic;
  analytic.disks = 8;
  analytic.disk_afr_fraction = 1.0 - std::exp(-per_disk_rate);
  analytic.repair_hours = policy.rebuild_hours;
  const double predicted_raid4 =
      core::defeat_probability_single_parity(analytic, 1.0) * outcome.group_years * 0.5;
  const double predicted_raid6 =
      core::defeat_probability_double_parity(analytic, 1.0) * outcome.group_years * 0.5;

  std::cout << "\nClassical (independent/exponential) model, fed the same measured "
            << core::fmt(100.0 * per_disk_rate, 2) << "%/disk-year rate:\n"
            << "  predicted RAID4 losses: " << core::fmt(predicted_raid4, 1) << " (measured "
            << outcome.data_loss_events_raid4 << " — "
            << core::fmt(static_cast<double>(outcome.data_loss_events_raid4) /
                             std::max(1e-9, predicted_raid4),
                         0)
            << "x worse)\n"
            << "  predicted RAID6 losses: " << core::fmt(predicted_raid6, 2) << " (measured "
            << outcome.data_loss_events_raid6 << ")\n\n";

  // --- one actionable lever ---------------------------------------------------
  auto disk_only = policy;
  disk_only.count_transient_failures = false;
  const auto disks_only_outcome = sim::replay_raid_recovery(fs.fleet, fs.result, disk_only);
  std::cout << "If only disk failures mattered (the classical scope), losses would be "
            << disks_only_outcome.data_loss_events_raid4 +
                   disks_only_outcome.data_loss_events_raid6
            << "; counting interconnect/protocol/performance unavailability they are "
            << outcome.data_loss_events_raid4 + outcome.data_loss_events_raid6
            << ".\nBudget for the storage *subsystem*, not the disks (the paper's core "
               "message), and prefer RAID6 when failures arrive in bursts.\n";
  return 0;
}
