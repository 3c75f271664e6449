// Quickstart: simulate a small storage fleet, run the paper's analysis
// pipeline end-to-end, and print the headline reliability numbers.
//
//   $ ./build/examples/quickstart
//
// Walks the whole public API surface in ~60 lines:
//   FleetConfig -> simulate_and_analyze -> Dataset -> Source -> AFR /
//   burstiness / correlation.
#include <iostream>

#include "core/afr.h"
#include "core/burstiness.h"
#include "core/correlation.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "core/source.h"
#include "model/fleet_config.h"

using namespace storsubsim;

int main() {
  // 1. Describe a fleet. `standard_fleet_config` is the paper's 39k-system
  //    fleet; scale 0.05 keeps this demo under a second.
  const model::FleetConfig config = model::standard_fleet_config(/*scale=*/0.05,
                                                                 /*seed=*/42);

  // 2. Simulate 44 months of operation and analyze it through the text-log
  //    pipeline (simulate -> AutoSupport-style logs -> parse -> classify).
  const core::SimulationDataset sd = core::simulate_and_analyze(config);
  const core::Dataset& dataset = sd.dataset;

  const core::Source source(dataset);
  const core::CohortCount count = source.count();
  std::cout << "Simulated " << count.systems << " systems / " << count.disk_records
            << " disks over 44 months: "
            << core::Source(dataset).event_records() << " storage subsystem failures ("
            << sd.pipeline.log_lines_written << " log lines round-tripped)\n\n";

  // 3. Annualized failure rates, broken down by failure type and class.
  std::cout << "AFR by system class (percent per disk-year):\n";
  core::TextTable table({"class", "disk", "interconnect", "protocol", "performance",
                         "subsystem total"});
  for (const auto& b : core::afr_by_class(source)) {
    table.add_row({b.label, core::fmt(b.afr_pct(model::FailureType::kDisk), 2),
                   core::fmt(b.afr_pct(model::FailureType::kPhysicalInterconnect), 2),
                   core::fmt(b.afr_pct(model::FailureType::kProtocol), 2),
                   core::fmt(b.afr_pct(model::FailureType::kPerformance), 2),
                   core::fmt(b.total_afr_pct(), 2)});
  }
  table.print(std::cout);

  // 4. Are failures bursty? (paper Finding 8)
  const auto tbf = core::time_between_failures(source, core::Scope::kShelf);
  std::cout << "\nConsecutive failures in the same shelf within 10,000 s: "
            << core::fmt_pct(tbf.fraction_within(core::kOverallSeries, 1e4), 1)
            << " of gaps — failures cluster; plan resiliency accordingly.\n";

  // 5. Are failures independent? (paper Finding 11)
  const auto corr = core::failure_correlation(source, core::Scope::kShelf,
                                              model::FailureType::kPhysicalInterconnect);
  std::cout << "Interconnect failures per shelf-year: empirical P(2) is "
            << core::fmt(corr.correlation_factor(), 1)
            << "x the independence prediction P(1)^2/2 — RAID's independence "
               "assumption does not hold.\n";
  return 0;
}
