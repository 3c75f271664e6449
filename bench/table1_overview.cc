// Table 1 — Overview of studied storage systems.
//
// Regenerates the paper's fleet-overview table: per system class, the number
// of systems, shelves, multipathing configurations, disks, disk types, RAID
// groups/types, and the count of each of the four failure-event types over
// the 44-month window. Paper reference values are printed alongside.
//
// Note on absolute failure counts: the paper's Table 1 counts imply ~1 year
// of average per-disk exposure while its system-year statement implies ~3.5.
// Panel (a) uses the standard deployment model (~2.7 y exposure; counts run
// proportionally higher); panel (b) switches to a back-loaded growing-fleet
// deployment with ~1 y mean exposure, which reproduces the paper's absolute
// counts. All rates are deployment-invariant. EXPERIMENTS.md discusses it.
#include <benchmark/benchmark.h>

#include <iostream>

#include "common.h"
#include "core/afr.h"
#include "model/fleet.h"
#include "sim/params.h"

namespace {

using namespace storsubsim;

struct PaperRow {
  const char* systems;
  const char* shelves;
  const char* multipath;
  const char* disks;
  const char* disk_type;
  const char* groups;
  const char* events;  // disk/PI/protocol/performance
};

const PaperRow kPaperRows[4] = {
    {"4,927", "33,681", "single", "520,776", "SATA", "67,227", "10,105/4,888/1,819/1,080"},
    {"22,031", "37,260", "single", "264,983", "FC", "44,252", "3,230/4,338/1,021/1,235"},
    {"7,154", "52,621", "single+dual", "578,980", "FC", "77,831", "8,989/7,949/2,298/2,060"},
    {"5,003", "33,428", "single+dual", "454,684", "FC", "49,555", "8,240/7,395/1,576/153"},
};

void overview_table(const core::Dataset& dataset, const bench::Options& options) {
  core::TextTable table({"class", "systems", "shelves", "multipath", "disk records",
                         "disk type", "RAID groups", "events d/pi/pr/pe",
                         "paper: systems/shelves/disks/groups", "paper events"});
  for (const auto cls : model::kAllSystemClasses) {
    core::Filter f;
    f.system_class = cls;
    const core::Source cohort(dataset, f);
    const core::CohortCount count = cohort.count();

    // Disk type and multipath mix from the inventory.
    bool any_dual = false;
    const auto& disk_models = model::DiskModelRegistry::standard();
    model::DiskType disk_type = model::DiskType::kFc;
    cohort.for_each_system([&](const log::InventorySystem& sys) {
      if (sys.paths == model::PathConfig::kDualPath) any_dual = true;
      disk_type = disk_models.at(sys.disk_model).type;
    });
    const auto events = core::compute_afr(cohort).events;
    const auto& paper = kPaperRows[model::index_of(cls)];
    table.add_row({std::string(model::to_string(cls)), std::to_string(count.systems),
                   std::to_string(count.shelves), any_dual ? "single+dual" : "single",
                   std::to_string(count.disk_records), std::string(model::to_string(disk_type)),
                   std::to_string(count.raid_groups),
                   std::to_string(events[0]) + "/" + std::to_string(events[1]) + "/" +
                       std::to_string(events[2]) + "/" + std::to_string(events[3]),
                   std::string(paper.systems) + "/" + paper.shelves + "/" + paper.disks +
                       "/" + paper.groups,
                   paper.events});
  }
  bench::print_table(std::cout, table, options);
}

void report(const bench::Options& options) {
  const auto& sd = bench::standard_dataset(options);
  bench::print_banner(std::cout, "Table 1: overview of the studied storage systems", options,
                      sd);
  std::cout << "(a) standard deployment model (uniform over the first half of the study; "
               "~2.7 y mean exposure)\n";
  overview_table(sd.dataset, options);

  // The paper's Table 1 event counts imply ~1 year of average per-disk
  // exposure (see EXPERIMENTS.md): reproduce them with a back-loaded
  // deployment curve whose mean exposure is horizon/(skew+1) ~ 1 year.
  std::cout << "(b) Table-1-calibrated deployment (growing fleet: deploy ~ u^(1/2.7) over "
               "the whole window; ~1 y mean exposure)\n";
  auto config = model::standard_fleet_config(options.scale, options.seed);
  config.deploy_window_fraction = 1.0;
  config.deploy_skew = 2.67;
  const auto calibrated = core::simulate_and_analyze(config, sim::SimParams::standard(),
                                                     /*through_text_logs=*/false);
  overview_table(calibrated.dataset, options);
  std::cout << "With exposure matched, the absolute failure-event counts land near the "
               "paper's Table 1 column while all AFRs stay unchanged (they are rates).\n";
}

bench::Options g_options;

void BM_FleetBuild(benchmark::State& state) {
  const auto config = model::standard_fleet_config(bench::kTimingScale, 1);
  for (auto _ : state) {
    auto fleet = model::Fleet::build(config);
    benchmark::DoNotOptimize(fleet.disks().size());
  }
}
BENCHMARK(BM_FleetBuild)->Unit(benchmark::kMillisecond);

void BM_EndToEndPipeline(benchmark::State& state) {
  const auto config = model::standard_fleet_config(bench::kTimingScale, 1);
  for (auto _ : state) {
    const auto sd = core::simulate_and_analyze(config);
    benchmark::DoNotOptimize(sd.dataset.events().size());
  }
}
BENCHMARK(BM_EndToEndPipeline)->Unit(benchmark::kMillisecond);

void BM_Table1Aggregation(benchmark::State& state) {
  const auto sd = core::simulate_and_analyze(
      model::standard_fleet_config(bench::kTimingScale, 1));
  for (auto _ : state) {
    for (const auto cls : model::kAllSystemClasses) {
      core::Filter f;
      f.system_class = cls;
      const core::Source cohort(sd.dataset, f);
      benchmark::DoNotOptimize(cohort.count().disk_records);
      benchmark::DoNotOptimize(cohort.disk_years().total);
    }
  }
}
BENCHMARK(BM_Table1Aggregation)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  g_options = bench::parse_options(argc, argv);
  if (g_options.run_benchmarks) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  report(g_options);
  bench::finish_run("bench/table1_overview", g_options);
  return 0;
}
