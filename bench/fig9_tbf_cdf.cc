// Figure 9 — Empirical CDFs of time between failures within a shelf (panel
// a) and within a RAID group (panel b), per failure type and overall, plus
// the Exponential/Gamma/Weibull fits to disk-failure interarrivals.
//
// Reproduces Findings 8-10: physical interconnect / protocol / performance
// failures are far burstier than disk failures; ~48% of consecutive
// subsystem failures in a shelf arrive within 10^4 s vs ~30% in a RAID
// group; the Gamma is the best-fitting distribution for disk-failure
// interarrivals while the bursty types fit no common distribution.
#include <benchmark/benchmark.h>

#include <iostream>

#include "common.h"
#include "core/burstiness.h"
#include "core/distribution_fit.h"
#include "stats/ecdf.h"

namespace {

using namespace storsubsim;
using model::FailureType;

void cdf_panel(const core::Source& ds, core::Scope scope, const char* title,
               const bench::Options& options) {
  const auto result = core::time_between_failures(core::Source(ds), scope);
  std::cout << title << "\n";

  const auto grid = stats::log_grid(1.0, 1e8, 9);
  core::TextTable table({"gap <= (s)", "disk", "phys-interconnect", "protocol", "performance",
                         "overall"});
  std::array<stats::Ecdf, core::kSeriesCount> ecdfs;
  for (std::size_t s = 0; s < core::kSeriesCount; ++s) ecdfs[s] = result.ecdf(s);
  for (const double x : grid) {
    table.add_row({core::fmt(x, 0), core::fmt(ecdfs[0](x), 3), core::fmt(ecdfs[1](x), 3),
                   core::fmt(ecdfs[2](x), 3), core::fmt(ecdfs[3](x), 3),
                   core::fmt(ecdfs[4](x), 3)});
  }
  bench::print_table(std::cout, table, options);

  std::cout << "fraction of gaps within 10,000 s: overall "
            << core::fmt_pct(result.fraction_within(core::kOverallSeries, 1e4), 0);
  for (const auto type : model::kAllFailureTypes) {
    std::cout << ", " << model::to_string(type) << " "
              << core::fmt_pct(result.fraction_within(core::series_of(type), 1e4), 0);
  }
  std::cout << "\n(paper: ~48% overall within a shelf, ~30% within a RAID group; "
               "interconnect burstiest, disk flattest)\n\n";
}

void fits_panel(const core::Source& ds, const bench::Options& options) {
  const auto shelf = core::time_between_failures(core::Source(ds), core::Scope::kShelf);
  std::cout << "Distribution fits to per-shelf interarrival gaps "
               "(chi-square GoF on a 150-sample cap; see EXPERIMENTS.md on test power)\n";
  core::TextTable table({"failure type", "family", "param1 (rate/shape)", "param2 (scale)",
                         "log-likelihood", "GoF p-value", "rejected@0.05", "best by ll"});
  for (const auto type : model::kAllFailureTypes) {
    const auto& gaps = shelf.gaps[core::series_of(type)];
    if (gaps.size() < 100) continue;
    const auto report = core::fit_interarrivals(gaps, 15, 150);
    const auto& best = report.best_by_likelihood();
    for (const auto& c : report.candidates) {
      table.add_row({std::string(model::to_string(type)), core::to_string(c.family),
                     core::fmt(c.fit.param1, 4), core::fmt(c.fit.param2, 0),
                     core::fmt(c.fit.log_likelihood, 0), core::fmt(c.gof.p_value, 4),
                     c.rejected_at_005 ? "yes" : "no",
                     (&c == &best) ? "<== best" : ""});
    }
  }
  bench::print_table(std::cout, table, options);
  std::cout << "Paper: the Gamma distribution is the best fit for disk failures (only "
               "candidate not rejected at 0.05); none of the common distributions fit the "
               "bursty failure types.\n";
}

void per_class_panel(const core::Source& ds, const bench::Options& options) {
  // Paper: "We repeated this analysis using data broken down by system
  // classes and shelf enclosure models. In all cases, similar patterns and
  // trends were observed."
  std::cout << "Per-class check: fraction of gaps within 10,000 s\n";
  core::TextTable table({"class", "shelf overall", "shelf interconnect", "shelf disk",
                         "group overall"});
  for (const auto cls : model::kAllSystemClasses) {
    core::Filter f;
    f.system_class = cls;
    const core::Source source(ds, f);
    if (source.count().systems == 0) continue;
    const auto shelf = core::time_between_failures(source, core::Scope::kShelf);
    const auto group = core::time_between_failures(source, core::Scope::kRaidGroup);
    table.add_row(
        {std::string(model::to_string(cls)),
         core::fmt_pct(shelf.fraction_within(core::kOverallSeries, 1e4), 0),
         core::fmt_pct(
             shelf.fraction_within(core::series_of(FailureType::kPhysicalInterconnect), 1e4),
             0),
         core::fmt_pct(shelf.fraction_within(core::series_of(FailureType::kDisk), 1e4), 0),
         core::fmt_pct(group.fraction_within(core::kOverallSeries, 1e4), 0)});
  }
  bench::print_table(std::cout, table, options);
}

void report(const bench::Options& options) {
  const auto& sd = bench::standard_run(options);
  bench::print_banner(std::cout, "Figure 9: CDFs of time between failures", options, sd);
  cdf_panel(sd.source, core::Scope::kShelf, "(a) failure distribution within a shelf",
            options);
  cdf_panel(sd.source, core::Scope::kRaidGroup,
            "(b) failure distribution within a RAID group", options);
  fits_panel(sd.source, options);
  per_class_panel(sd.source, options);
}

void BM_TimeBetweenFailures(benchmark::State& state) {
  const auto sd = core::simulate_and_analyze(
      model::standard_fleet_config(bench::kTimingScale, 1));
  for (auto _ : state) {
    const auto r = core::time_between_failures(
        core::Source(sd.dataset),
        state.range(0) == 0 ? core::Scope::kShelf : core::Scope::kRaidGroup);
    benchmark::DoNotOptimize(r.gap_count(core::kOverallSeries));
  }
}
BENCHMARK(BM_TimeBetweenFailures)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_DistributionFits(benchmark::State& state) {
  const auto sd = core::simulate_and_analyze(
      model::standard_fleet_config(bench::kTimingScale, 1));
  const auto shelf = core::time_between_failures(core::Source(sd.dataset), core::Scope::kShelf);
  const auto& gaps = shelf.gaps[core::kOverallSeries];
  for (auto _ : state) {
    const auto report = core::fit_interarrivals(gaps, 15, 150);
    benchmark::DoNotOptimize(report.candidates.size());
  }
}
BENCHMARK(BM_DistributionFits)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  if (options.run_benchmarks) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  report(options);
  bench::finish_run("bench/fig9_tbf_cdf", options);
  return 0;
}
