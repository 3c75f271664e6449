// Extension — per-device lifetime view: survival curves and age-dependent
// hazard.
//
// The paper models disk failures without age dependence (and Finding 5
// rules out a capacity trend); related work it cites (Pinheiro et al.,
// Schroeder & Gibson, FAST'07) debates infant mortality and wear-out. This
// harness computes the censoring-aware per-device statistics on the
// simulated fleet: Kaplan-Meier survival by disk type, the age-binned hazard
// (flat by default), and an infant-mortality ablation showing what the
// FAST'07-style bathtub edge would look like in this pipeline.
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "common.h"
#include "core/lifetime.h"
#include "model/time.h"
#include "sim/scenario.h"

namespace {

using namespace storsubsim;

void hazard_table(const core::LifetimeReport& report, const bench::Options& options) {
  core::TextTable table({"age band", "failures", "exposure (disk-years)",
                         "hazard (%/disk-year)"});
  for (const auto& bin : report.hazard_by_age) {
    table.add_row({core::fmt(bin.age_lo / model::kSecondsPerDay, 0) + "-" +
                       core::fmt(bin.age_hi / model::kSecondsPerDay, 0) + " d",
                   std::to_string(bin.events), core::fmt(model::years(bin.exposure), 0),
                   core::fmt(100.0 * bin.rate() * model::kSecondsPerYear, 2)});
  }
  bench::print_table(std::cout, table, options);
}

void report(const bench::Options& options) {
  const auto& sd = bench::standard_dataset(options);
  bench::print_banner(std::cout, "Extension: disk lifetime survival and age-hazard",
                      options, sd);

  for (const auto type : {model::DiskType::kFc, model::DiskType::kSata}) {
    // SATA == the near-line class in the studied fleet; use low-end (family
    // H excluded) as the FC representative.
    core::Filter f;
    if (type == model::DiskType::kSata) {
      f.system_class = model::SystemClass::kNearLine;
    } else {
      f.system_class = model::SystemClass::kLowEnd;
      f.exclude_family_h = true;
    }
    const auto report = core::disk_lifetime_report(core::Source(sd.dataset, f));
    std::cout << (type == model::DiskType::kSata ? "SATA (near-line)" : "FC (low-end)")
              << ": " << report.disks << " disk records, " << report.failures
              << " disk failures, " << core::fmt_pct(report.censored_fraction, 1)
              << " censored\n"
              << "  survival: 1y " << core::fmt(report.survival.survival(model::from_years(1.0)), 4)
              << ", 2y " << core::fmt(report.survival.survival(model::from_years(2.0)), 4)
              << ", 3y " << core::fmt(report.survival.survival(model::from_years(3.0)), 4)
              << (std::isinf(report.survival.median())
                      ? " (median lifetime beyond the study window)\n"
                      : "\n");
    hazard_table(report, options);
  }

  std::cout << "Infant-mortality ablation (near-line cohort, 20x hazard in the first 30 "
               "days):\n";
  auto params = sim::SimParams::standard();
  params.infant_multiplier = 20.0;
  params.infant_period_seconds = 30.0 * model::kSecondsPerDay;
  auto fs = sim::simulate_fleet(
      model::standard_fleet_config(std::min(options.scale, 0.25), options.seed), params);
  const auto ds = core::dataset_in_memory(fs.fleet, fs.result);
  core::Filter nearline;
  nearline.system_class = model::SystemClass::kNearLine;
  hazard_table(core::disk_lifetime_report(core::Source(ds, nearline)), options);
  std::cout << "Default parameters keep the hazard flat with age (consistent with the "
               "paper's age-free disk model and Finding 5); the ablation shows how a "
               "bathtub edge would surface in the same tables.\n";
}

void BM_LifetimeReport(benchmark::State& state) {
  const auto sd = core::simulate_and_analyze(
      model::standard_fleet_config(bench::kTimingScale, 1));
  for (auto _ : state) {
    const auto r = core::disk_lifetime_report(core::Source(sd.dataset));
    benchmark::DoNotOptimize(r.failures);
  }
}
BENCHMARK(BM_LifetimeReport)->Unit(benchmark::kMillisecond);

void BM_KaplanMeierFit(benchmark::State& state) {
  const auto sd = core::simulate_and_analyze(
      model::standard_fleet_config(bench::kTimingScale, 1));
  const auto observations = core::disk_lifetime_observations(core::Source(sd.dataset));
  for (auto _ : state) {
    const auto km = storsubsim::stats::KaplanMeier::fit(observations);
    benchmark::DoNotOptimize(km.total_events());
  }
}
BENCHMARK(BM_KaplanMeierFit)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  if (options.run_benchmarks) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  report(options);
  bench::finish_run("bench/lifetime_analysis", options);
  return 0;
}
