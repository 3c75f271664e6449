// Reliability planner: use the simulator as a design tool.
//
//   $ ./build/examples/reliability_planner
//
// Scenario: you are speccing a mid-range deployment and must pick
//   (a) single vs dual interconnect paths,
//   (b) RAID groups confined to one shelf vs spanning three,
//   (c) shelf enclosure model A vs B for the disks you standardized on.
// Each choice is evaluated by simulating a candidate cohort and comparing
// AFR, burstiness and statistical significance — the quantitative version of
// the paper's design guidance (Findings 6, 7, 9).
//
//   $ ./build/examples/reliability_planner [fleet.store]
//
// The opening baseline ("what does the installed fleet look like today?")
// loads from a prebuilt columnar store when one is given — mmap + query,
// milliseconds (docs/STORE.md) — and falls back to simulating a reduced
// standard fleet otherwise.
#include <iostream>

#include "core/afr.h"
#include "core/burstiness.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "core/significance.h"
#include "core/source.h"
#include "core/store_bridge.h"
#include "model/fleet_config.h"
#include "sim/scenario.h"
#include "store/shards.h"

using namespace storsubsim;

namespace {

model::CohortSpec base_cohort() {
  model::CohortSpec c;
  c.label = "planner";
  c.cls = model::SystemClass::kMidRange;
  c.shelf_model = model::ShelfModelName{'B'};
  c.disk_mix = {{model::DiskModelName{'D', 2}, 1.0}};
  c.num_systems = 4000;
  c.mean_shelves_per_system = 6.0;
  c.mean_disks_per_shelf = 12.0;
  c.raid_group_size = 8;
  c.raid_span_shelves = 3;
  return c;
}

core::Dataset simulate(const model::CohortSpec& cohort, std::uint64_t seed) {
  auto fs = sim::simulate_fleet(sim::cohort_fleet(cohort, 1.0, seed));
  return core::dataset_in_memory(fs.fleet, fs.result);
}

void print_baseline(const std::vector<core::AfrBreakdown>& by_class, const char* source) {
  std::cout << "Installed-fleet baseline (" << source << "):\n";
  core::TextTable t({"class", "disk AFR", "subsystem AFR"});
  for (const auto& b : by_class) {
    t.add_row({b.label, core::fmt(b.afr_pct(model::FailureType::kDisk), 2) + "%",
               core::fmt(b.total_afr_pct(), 2) + "%"});
  }
  t.print(std::cout);
  std::cout << "\n";
}

/// Planning starts from "what does the installed fleet look like today?".
/// Given a prebuilt columnar store that is a mmap + query (milliseconds);
/// otherwise simulate a reduced standard fleet as a stand-in.
void fleet_baseline(int argc, char** argv) {
  if (argc > 1) {
    store::ShardStore shards;
    store::Error err = shards.open(argv[1]);
    if (err.ok()) err = shards.open_all();
    if (err.ok()) {
      print_baseline(core::afr_by_class(core::Source(shards)), argv[1]);
      return;
    }
    std::cerr << "cannot open store " << argv[1] << ": " << err.describe()
              << "\nfalling back to a simulated baseline\n";
  }
  const auto run = core::simulate_and_analyze(model::standard_fleet_config(0.1, 20080226));
  print_baseline(core::afr_by_class(core::Source(run.dataset)), "simulated, --scale=0.1");
}

}  // namespace

int main(int argc, char** argv) {
  fleet_baseline(argc, argv);

  std::cout << "Deployment: 4,000 mid-range systems, Disk D-2, 6 shelves x 12 disks.\n\n";

  // --- (a) single vs dual paths ---------------------------------------------
  {
    auto single = base_cohort();
    auto dual = base_cohort();
    dual.dual_path_fraction = 1.0;
    const auto ds_single = simulate(single, 1001);
    const auto ds_dual = simulate(dual, 1002);
    const auto cmp = core::compare_cohorts(ds_single, "single path", ds_dual, "dual paths",
                                           model::FailureType::kPhysicalInterconnect, 0.999);
    std::cout << "(a) Interconnect redundancy\n";
    core::TextTable t({"option", "interconnect AFR", "subsystem AFR"});
    t.add_row({"single path", core::fmt(cmp.a.afr_pct(cmp.focus), 2) + "%",
               core::fmt(cmp.a.total_afr_pct(), 2) + "%"});
    t.add_row({"dual paths", core::fmt(cmp.b.afr_pct(cmp.focus), 2) + "%",
               core::fmt(cmp.b.total_afr_pct(), 2) + "%"});
    t.print(std::cout);
    std::cout << "    dual paths cut interconnect failures by "
              << core::fmt_pct(cmp.focus_reduction(), 0) << " (subsystem "
              << core::fmt_pct(cmp.total_reduction(), 0) << "), significant at 99.9%: "
              << (cmp.significant_at(0.999) ? "yes" : "no")
              << " -> recommend DUAL PATHS.\n\n";
  }

  // --- (b) RAID span -----------------------------------------------------------
  {
    auto narrow = base_cohort();
    narrow.raid_span_shelves = 1;
    auto wide = base_cohort();
    wide.raid_span_shelves = 3;
    const auto ds_narrow = simulate(narrow, 1003);
    const auto ds_wide = simulate(wide, 1004);
    const auto b_narrow = core::time_between_failures(core::Source(ds_narrow), core::Scope::kRaidGroup);
    const auto b_wide = core::time_between_failures(core::Source(ds_wide), core::Scope::kRaidGroup);
    std::cout << "(b) RAID group placement\n";
    core::TextTable t({"option", "group failures within 10^4 s", "subsystem AFR"});
    t.add_row({"group within one shelf",
               core::fmt_pct(b_narrow.fraction_within(core::kOverallSeries, 1e4), 1),
               core::fmt(core::compute_afr(core::Source(ds_narrow)).total_afr_pct(), 2) + "%"});
    t.add_row({"group spanning 3 shelves",
               core::fmt_pct(b_wide.fraction_within(core::kOverallSeries, 1e4), 1),
               core::fmt(core::compute_afr(core::Source(ds_wide)).total_afr_pct(), 2) + "%"});
    t.print(std::cout);
    std::cout << "    spanning does not change the failure *rate*, but failures inside one\n"
              << "    group arrive far less bunched -> fewer windows where a second failure\n"
              << "    lands mid-reconstruction -> recommend SPANNING SHELVES.\n\n";
  }

  // --- (c) shelf enclosure model ------------------------------------------------
  {
    auto shelf_a = base_cohort();
    shelf_a.cls = model::SystemClass::kLowEnd;  // both shelves qualified for low-end
    shelf_a.shelf_model = model::ShelfModelName{'A'};
    shelf_a.mean_shelves_per_system = 2.0;
    auto shelf_b = shelf_a;
    shelf_b.shelf_model = model::ShelfModelName{'B'};
    const auto ds_a = simulate(shelf_a, 1005);
    const auto ds_b = simulate(shelf_b, 1006);
    const auto cmp = core::compare_cohorts(ds_a, "shelf A", ds_b, "shelf B",
                                           model::FailureType::kPhysicalInterconnect, 0.995);
    std::cout << "(c) Shelf enclosure model (for Disk D-2)\n";
    core::TextTable t({"option", "interconnect AFR", "subsystem AFR"});
    t.add_row({"shelf model A", core::fmt(cmp.a.afr_pct(cmp.focus), 2) + "%",
               core::fmt(cmp.a.total_afr_pct(), 2) + "%"});
    t.add_row({"shelf model B", core::fmt(cmp.b.afr_pct(cmp.focus), 2) + "%",
               core::fmt(cmp.b.total_afr_pct(), 2) + "%"});
    t.print(std::cout);
    const bool a_better = cmp.a.afr_pct(cmp.focus) < cmp.b.afr_pct(cmp.focus);
    std::cout << "    " << (a_better ? "shelf A" : "shelf B") << " is better *for this disk "
              << "model* (interoperability matters — the answer flips for Disk A-2;\n"
              << "    see the fig6_shelf_model harness), significant at 99.5%: "
              << (cmp.significant_at(0.995) ? "yes" : "no") << ".\n";
  }
  return 0;
}
