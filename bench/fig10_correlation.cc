// Figure 10 — Empirical P(2) vs the theoretical P(2) = P(1)^2/2 predicted
// under failure independence, per failure type, for shelves (panel a) and
// RAID groups (panel b).
//
// Reproduces Finding 11: every failure type violates independence — the
// paper reports empirical P(2) above theory by ~6x for disk failures and
// 10-25x for the other types, confirmed by t-tests at 99.5% confidence.
#include <benchmark/benchmark.h>

#include <iostream>
#include <utility>

#include "common.h"
#include "core/correlation.h"

namespace {

using namespace storsubsim;

void panel(const core::Source& ds, core::Scope scope, const char* title,
           const bench::Options& options) {
  std::cout << title << "\n";
  core::TextTable table({"failure type", "windows", "P(1)", "empirical P(2) (99.5% CI)",
                         "theoretical P(2)", "factor", "z", "significant@99.5%",
                         "paper factor"});
  for (const auto& r : core::failure_correlation_all_types(core::Source(ds), scope)) {
    const auto ci = r.empirical_p2_ci(0.995);
    const char* paper_factor = r.type == model::FailureType::kDisk ? "~6x" : "10-25x";
    table.add_row({std::string(model::to_string(r.type)),
                   std::to_string(r.windows_observed), core::fmt(100.0 * r.empirical_p1(), 3),
                   core::fmt(100.0 * r.empirical_p2(), 3) + "% [" +
                       core::fmt(100.0 * ci.lower, 3) + "," + core::fmt(100.0 * ci.upper, 3) +
                       "]",
                   core::fmt(100.0 * r.theoretical_p2(), 4) + "%",
                   core::fmt(r.correlation_factor(), 1) + "x",
                   core::fmt(r.independence_test().t_statistic, 1),
                   r.independence_test().significant_at(0.995) ? "yes" : "no", paper_factor});
  }
  bench::print_table(std::cout, table, options);
}

void multiplicity_panel(const core::Source& ds, const bench::Options& options) {
  std::cout << "Generalized check, P(N) = P(1)^N / N! (paper equation 4), "
               "physical-interconnect failures per shelf-year:\n";
  core::TextTable table({"N", "empirical P(N)", "theoretical P(N)", "ratio"});
  const auto rows = core::failure_multiplicity(
      ds, core::Scope::kShelf, model::FailureType::kPhysicalInterconnect, 4);
  for (const auto& row : rows) {
    table.add_row({std::to_string(row.n), core::fmt(100.0 * row.empirical, 4) + "%",
                   core::fmt(100.0 * row.theoretical, 4) + "%",
                   row.theoretical > 0.0
                       ? core::fmt(row.empirical / row.theoretical, 1) + "x"
                       : "-"});
  }
  bench::print_table(std::cout, table, options);
}

void sensitivity_panel(const core::Source& ds, const bench::Options& options) {
  // The paper: "Although in Figure 10 we set T to be one year, the
  // conclusion is general to different values of T. We have set T to 3
  // months, 6 months, and 2 years ... In all cases, similar correlations
  // were observed."
  std::cout << "Sensitivity: correlation factor (shelf scope) vs window length T\n";
  core::TextTable table({"T", "disk", "phys-interconnect", "protocol", "performance"});
  const struct {
    const char* label;
    double seconds;
  } windows[] = {{"3 months", 0.25 * model::kSecondsPerYear},
                 {"6 months", 0.5 * model::kSecondsPerYear},
                 {"1 year", model::kSecondsPerYear},
                 {"2 years", 2.0 * model::kSecondsPerYear}};
  for (const auto& w : windows) {
    std::vector<std::string> row = {w.label};
    for (const auto& r : core::failure_correlation_all_types(core::Source(ds),
                                                             core::Scope::kShelf,
                                                             w.seconds)) {
      row.push_back(core::fmt(r.correlation_factor(), 1) + "x");
    }
    table.add_row(std::move(row));
  }
  bench::print_table(std::cout, table, options);

  // "...and also grouped data based on other factors, such as system
  // classes": per-class factors.
  std::cout << "Sensitivity: correlation factor (shelf scope, T = 1 year) by system class\n";
  core::TextTable by_class({"class", "disk", "phys-interconnect", "protocol", "performance"});
  for (const auto cls : model::kAllSystemClasses) {
    core::Filter f;
    f.system_class = cls;
    const core::Source cohort(ds, f);
    if (cohort.count().systems == 0) continue;
    std::vector<std::string> row = {std::string(model::to_string(cls))};
    for (const auto& r : core::failure_correlation_all_types(cohort, core::Scope::kShelf)) {
      row.push_back(core::fmt(r.correlation_factor(), 1) + "x");
    }
    by_class.add_row(std::move(row));
  }
  bench::print_table(std::cout, by_class, options);
}

void dispersion_and_cross_panel(const core::Source& ds, const bench::Options& options) {
  // A binning-free second lens: variance-to-mean of per-shelf-year counts
  // (1.0 under Poisson).
  std::cout << "Dispersion index (variance/mean of per-shelf-year counts; Poisson = 1)\n";
  core::TextTable disp({"failure type", "dispersion index"});
  for (const auto type : model::kAllFailureTypes) {
    disp.add_row({std::string(model::to_string(type)),
                  core::fmt(core::dispersion_index(ds, core::Scope::kShelf, type), 1)});
  }
  bench::print_table(std::cout, disp, options);

  // Cross-type triggering within a shelf: does one failure type foreshadow
  // another? Same-type rows show the self-excitation behind Figures 9/10;
  // cross-type rows stay near (or below measurable) lift because the
  // generative mechanisms couple types only through shared *rates* (family
  // H, Finding 3), not through event-level triggering — a falsifiable
  // statement about the model that the real AutoSupport data could test.
  std::cout << "Cross-type triggering within a shelf (response within 24 h of trigger)\n";
  core::TextTable cross({"trigger -> response", "triggers", "P(response | trigger)",
                         "independent baseline", "lift"});
  const std::pair<model::FailureType, model::FailureType> pairs[] = {
      {model::FailureType::kPhysicalInterconnect, model::FailureType::kPhysicalInterconnect},
      {model::FailureType::kPhysicalInterconnect, model::FailureType::kPerformance},
      {model::FailureType::kDisk, model::FailureType::kDisk},
      {model::FailureType::kDisk, model::FailureType::kProtocol},
      {model::FailureType::kProtocol, model::FailureType::kPerformance},
  };
  for (const auto& [trigger, response] : pairs) {
    const auto r =
        core::cross_type_correlation(ds, core::Scope::kShelf, trigger, response, 86400.0);
    cross.add_row({std::string(model::to_string(trigger)) + " -> " +
                       std::string(model::to_string(response)),
                   std::to_string(r.triggers), core::fmt_pct(r.conditional_probability(), 2),
                   core::fmt_pct(r.baseline_probability(), 2),
                   core::fmt(r.lift(), 1) + "x"});
  }
  bench::print_table(std::cout, cross, options);
}

void report(const bench::Options& options) {
  const auto& sd = bench::standard_run(options);
  bench::print_banner(std::cout,
                      "Figure 10: empirical vs theoretical P(2) under independence", options,
                      sd);
  panel(sd.source, core::Scope::kShelf, "(a) shelf enclosure failures (T = 1 year)",
        options);
  panel(sd.source, core::Scope::kRaidGroup, "(b) RAID group failures (T = 1 year)",
        options);
  multiplicity_panel(sd.source, options);
  sensitivity_panel(sd.source, options);
  dispersion_and_cross_panel(sd.source, options);
  std::cout << "Paper: empirical P(2) exceeds the independence prediction for every type "
               "(disk ~6x; interconnect/protocol/performance 10-25x), with t-tests "
               "significant at 99.5% — failures within a shelf or RAID group share "
               "causes.\n";
}

void BM_CorrelationAllTypes(benchmark::State& state) {
  const auto sd = core::simulate_and_analyze(
      model::standard_fleet_config(bench::kTimingScale, 1));
  for (auto _ : state) {
    const auto rows = core::failure_correlation_all_types(
        core::Source(sd.dataset),
        state.range(0) == 0 ? core::Scope::kShelf : core::Scope::kRaidGroup);
    benchmark::DoNotOptimize(rows.size());
  }
}
BENCHMARK(BM_CorrelationAllTypes)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Multiplicity(benchmark::State& state) {
  const auto sd = core::simulate_and_analyze(
      model::standard_fleet_config(bench::kTimingScale, 1));
  for (auto _ : state) {
    const auto rows = core::failure_multiplicity(
        sd.dataset, core::Scope::kShelf, model::FailureType::kPhysicalInterconnect, 5);
    benchmark::DoNotOptimize(rows.size());
  }
}
BENCHMARK(BM_Multiplicity)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  if (options.run_benchmarks) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  report(options);
  bench::finish_run("bench/fig10_correlation", options);
  return 0;
}
