// Figure 6 — AFR for low-end storage subsystems by shelf enclosure model,
// for the four disk models deployed with both shelf models.
//
// Reproduces Finding 6: the shelf enclosure model has a strong impact on
// physical interconnect failures (little on other types), the difference is
// significant at >= 99.5% confidence, and the *better* shelf model flips
// between disk models (B wins for A-2; A wins for A-3, D-2 and D-3).
#include <benchmark/benchmark.h>

#include <iostream>

#include "common.h"
#include "core/significance.h"

namespace {

using namespace storsubsim;
using model::FailureType;

struct PaperRef {
  const char* model;
  double shelf_a_pi;
  double shelf_b_pi;
  const char* confidence;
};

// Figure 6 values quoted in the paper's text for panel (a), and the reported
// per-panel confidence levels.
const PaperRef kPaper[4] = {
    {"A-2", 2.66, 2.18, "99.5%"},
    {"A-3", -1.0, -1.0, "99.5%"},  // bars not quoted numerically
    {"D-2", -1.0, -1.0, "99.9%"},
    {"D-3", -1.0, -1.0, "99.9%"},
};

void report(const bench::Options& options) {
  const auto& sd = bench::standard_run(options);
  bench::print_banner(std::cout,
                      "Figure 6: low-end AFR by shelf enclosure model (per disk model)",
                      options, sd);

  core::TextTable table({"disk model", "shelf A PI AFR (99.5% CI)", "shelf B PI AFR (99.5% CI)",
                         "shelf A total", "shelf B total", "better shelf", "z", "p-value",
                         "significant@99.5%", "paper PI A vs B"});
  const model::DiskModelName models[4] = {{'A', 2}, {'A', 3}, {'D', 2}, {'D', 3}};
  for (int i = 0; i < 4; ++i) {
    core::Filter fa;
    fa.system_class = model::SystemClass::kLowEnd;
    fa.disk_model = models[i];
    fa.shelf_model = model::ShelfModelName{'A'};
    core::Filter fb = fa;
    fb.shelf_model = model::ShelfModelName{'B'};
    const auto cmp = core::compare_cohorts(core::Source(sd.source, fa), "shelf A",
                                           core::Source(sd.source, fb), "shelf B",
                                           FailureType::kPhysicalInterconnect, 0.995);
    const auto& paper = kPaper[i];
    const std::string paper_cell =
        paper.shelf_a_pi > 0
            ? core::fmt(paper.shelf_a_pi, 2) + " vs " + core::fmt(paper.shelf_b_pi, 2) +
                  " @" + paper.confidence
            : std::string("flip reported @") + paper.confidence;
    table.add_row({model::to_string(models[i]),
                   core::fmt(cmp.focus_ci_a.point, 2) + " [" +
                       core::fmt(cmp.focus_ci_a.lower, 2) + "," +
                       core::fmt(cmp.focus_ci_a.upper, 2) + "]",
                   core::fmt(cmp.focus_ci_b.point, 2) + " [" +
                       core::fmt(cmp.focus_ci_b.lower, 2) + "," +
                       core::fmt(cmp.focus_ci_b.upper, 2) + "]",
                   core::fmt(cmp.a.total_afr_pct(), 2), core::fmt(cmp.b.total_afr_pct(), 2),
                   cmp.a.afr_pct(cmp.focus) < cmp.b.afr_pct(cmp.focus) ? "A" : "B",
                   core::fmt(cmp.focus_test.t_statistic, 2),
                   core::fmt(cmp.focus_test.p_value_two_sided, 4),
                   cmp.significant_at(0.995) ? "yes" : "no", paper_cell});
  }
  bench::print_table(std::cout, table, options);
  std::cout << "Paper: shelf B better for Disk A-2 (2.18 vs 2.66); shelf A better for A-3, "
               "D-2, D-3; all differences significant at 99.5-99.9% confidence.\n"
            << "Shelf model affects primarily the physical-interconnect component (compare "
               "the total columns against Figure 5's per-type splits).\n";
}

void BM_CohortComparison(benchmark::State& state) {
  const auto sd = core::simulate_and_analyze(
      model::standard_fleet_config(bench::kTimingScale, 1));
  core::Filter fa;
  fa.system_class = model::SystemClass::kLowEnd;
  fa.disk_model = model::DiskModelName{'A', 2};
  fa.shelf_model = model::ShelfModelName{'A'};
  core::Filter fb = fa;
  fb.shelf_model = model::ShelfModelName{'B'};
  const core::Source a(sd.dataset, fa);
  const core::Source b(sd.dataset, fb);
  for (auto _ : state) {
    const auto cmp = core::compare_cohorts(a, "A", b, "B",
                                           model::FailureType::kPhysicalInterconnect, 0.995);
    benchmark::DoNotOptimize(cmp.focus_test.p_value_two_sided);
  }
}
BENCHMARK(BM_CohortComparison)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  if (options.run_benchmarks) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  report(options);
  bench::finish_run("bench/fig6_shelf_model", options);
  return 0;
}
