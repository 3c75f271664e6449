// Figure 5 — AFR for storage subsystems by disk model, one panel per
// (system class, shelf enclosure model) combination.
//
// Reproduces Findings 3-5: family H systems run at ~2x the typical subsystem
// AFR (with elevated protocol/performance rates, not just disk rates); disk
// AFR is stable across environments while subsystem AFR is not; and AFR does
// not grow with capacity within a family.
#include <benchmark/benchmark.h>

#include <iostream>

#include "common.h"
#include "core/afr.h"

namespace {

using namespace storsubsim;
using model::FailureType;

struct Panel {
  const char* title;
  model::SystemClass cls;
  char shelf;
};

const Panel kPanels[6] = {
    {"(a) near-line w/ shelf model C", model::SystemClass::kNearLine, 'C'},
    {"(b) low-end w/ shelf model A", model::SystemClass::kLowEnd, 'A'},
    {"(c) low-end w/ shelf model B", model::SystemClass::kLowEnd, 'B'},
    {"(d) mid-range w/ shelf model C", model::SystemClass::kMidRange, 'C'},
    {"(e) mid-range w/ shelf model B", model::SystemClass::kMidRange, 'B'},
    {"(f) high-end w/ shelf model B", model::SystemClass::kHighEnd, 'B'},
};

void report(const bench::Options& options) {
  const auto& sd = bench::standard_run(options);
  bench::print_banner(std::cout, "Figure 5: AFR by disk model (6 class x shelf panels)",
                      options, sd);

  for (const auto& panel : kPanels) {
    core::Filter f;
    f.system_class = panel.cls;
    f.shelf_model = model::ShelfModelName{panel.shelf};
    const core::Source cohort(sd.source, f);
    if (cohort.count().systems == 0) continue;
    std::cout << panel.title << "\n";
    core::TextTable table({"disk model", "disk", "phys-interconnect", "protocol",
                           "performance", "total AFR", "disk-years"});
    for (const auto& b : core::afr_by_disk_model(cohort)) {
      table.add_row({b.label, bench::afr_cell(b, FailureType::kDisk),
                     bench::afr_cell(b, FailureType::kPhysicalInterconnect),
                     bench::afr_cell(b, FailureType::kProtocol),
                     bench::afr_cell(b, FailureType::kPerformance),
                     core::fmt(b.total_afr_pct(), 2), core::fmt(b.disk_years, 0)});
    }
    bench::print_table(std::cout, table, options);
  }

  std::cout << "Paper reference: most panels sit at 2-4% subsystem AFR; Disk H-1/H-2 panels "
               "reach 3.9-8.3% (Finding 3).\n\n";

  // Finding 4 companion table: per-model cross-environment stability.
  std::cout << "Finding 4: cross-environment stability of disk AFR vs subsystem AFR\n";
  core::TextTable stability({"disk model", "environments", "mean disk AFR",
                             "rel-stddev disk AFR", "mean subsystem AFR",
                             "rel-stddev subsystem AFR"});
  core::Filter no_h;
  no_h.exclude_family_h = true;
  double disk_spread = 0.0, subsystem_spread = 0.0;
  const auto rows = core::afr_stability_by_disk_model(core::Source(sd.source, no_h));
  for (const auto& row : rows) {
    stability.add_row({row.disk_model, std::to_string(row.environments),
                       core::fmt(row.mean_disk_afr, 2),
                       core::fmt_pct(row.rel_stddev_disk_afr, 0),
                       core::fmt(row.mean_subsystem_afr, 2),
                       core::fmt_pct(row.rel_stddev_subsystem_afr, 0)});
    disk_spread += row.rel_stddev_disk_afr;
    subsystem_spread += row.rel_stddev_subsystem_afr;
  }
  bench::print_table(std::cout, stability, options);
  if (!rows.empty()) {
    std::cout << "average relative std-dev: disk AFR "
              << core::fmt_pct(disk_spread / static_cast<double>(rows.size()), 0)
              << " vs subsystem AFR "
              << core::fmt_pct(subsystem_spread / static_cast<double>(rows.size()), 0)
              << "  (paper: <11% vs ~98%)\n";
  }
}

void BM_AfrByDiskModel(benchmark::State& state) {
  const auto sd = core::simulate_and_analyze(
      model::standard_fleet_config(bench::kTimingScale, 1));
  core::Filter f;
  f.system_class = model::SystemClass::kLowEnd;
  f.shelf_model = model::ShelfModelName{'A'};
  const core::Source cohort(sd.dataset, f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::afr_by_disk_model(cohort).size());
  }
}
BENCHMARK(BM_AfrByDiskModel)->Unit(benchmark::kMillisecond);

void BM_StabilityAnalysis(benchmark::State& state) {
  const auto sd = core::simulate_and_analyze(
      model::standard_fleet_config(bench::kTimingScale, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::afr_stability_by_disk_model(sd.dataset).size());
  }
}
BENCHMARK(BM_StabilityAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  if (options.run_benchmarks) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  report(options);
  bench::finish_run("bench/fig5_afr_by_disk_model", options);
  return 0;
}
