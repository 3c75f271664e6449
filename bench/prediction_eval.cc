// Extension — failure prediction from component errors.
//
// The paper's future-work list includes "design storage failure prediction
// algorithms based on component errors". This harness evaluates the
// threshold-rule family (>= k errors in a trailing window => alarm) on the
// simulated fleet, per failure type, sweeping the threshold to trace the
// precision/recall trade-off. Protocol failures have no component-error
// precursor (driver incompatibilities strike without hardware warning),
// which keeps one failure type honest: no predictor should show skill there.
#include <benchmark/benchmark.h>

#include <iostream>

#include "common.h"
#include "core/prediction.h"
#include "model/time.h"
#include "sim/scenario.h"

namespace {

using namespace storsubsim;

struct Signal {
  const char* name;
  sim::PrecursorKind kind;
  model::FailureType target;
};

const Signal kSignals[] = {
    {"medium errors -> disk failure", sim::PrecursorKind::kMediumError,
     model::FailureType::kDisk},
    {"link resets -> interconnect failure", sim::PrecursorKind::kLinkReset,
     model::FailureType::kPhysicalInterconnect},
    {"command timeouts -> performance failure", sim::PrecursorKind::kCmdTimeout,
     model::FailureType::kPerformance},
    {"medium errors -> protocol failure (control: should show no skill)",
     sim::PrecursorKind::kMediumError, model::FailureType::kProtocol},
};

void report(const bench::Options& options) {
  std::cout << "\n================================================================\n"
            << "Extension: failure prediction from component errors\n"
            << "================================================================\n";
  const double scale = std::min(options.scale, 0.25);  // precursor streams are big
  std::cout << "fleet scale " << scale << " (seed " << options.seed << ")\n";

  auto fs = sim::run_standard(scale, options.seed);
  const auto precursors =
      sim::generate_precursors(fs.fleet, fs.result, sim::PrecursorParams::standard());
  const auto ds = core::dataset_in_memory(fs.fleet, fs.result);
  std::cout << precursors.size() << " component-error events, " << core::Source(ds).event_records()
            << " failures\n\n";

  for (const auto& signal : kSignals) {
    std::cout << signal.name << "\n";
    core::TextTable table({"predictor", "alarms", "precision", "recall", "median lead",
                           "false alarms / 1000 disk-years"});
    core::PredictorConfig base;
    base.signal = signal.kind;
    base.target = signal.target;
    const std::size_t thresholds[] = {2, 3, 5, 8};
    for (const auto& r : core::threshold_sweep(ds, precursors, base, thresholds)) {
      table.add_row({"count >= " + std::to_string(r.config.threshold) + " in 14 d",
                     std::to_string(r.alarms), core::fmt_pct(r.precision(), 1),
                     core::fmt_pct(r.recall(), 1),
                     core::fmt(r.median_lead_seconds / model::kSecondsPerDay, 1) + " days",
                     core::fmt(1000.0 * r.false_alarms_per_disk_year, 2)});
    }
    // The smoother EWMA family at two operating points.
    for (const double rate : {0.3, 0.7}) {
      auto ewma = base;
      ewma.kind = core::PredictorKind::kEwmaRate;
      ewma.ewma_tau_days = 7.0;
      ewma.rate_threshold_per_day = rate;
      const auto r = core::evaluate_predictor(ds, precursors, ewma);
      table.add_row({"EWMA(7 d) > " + core::fmt(rate, 1) + "/d", std::to_string(r.alarms),
                     core::fmt_pct(r.precision(), 1), core::fmt_pct(r.recall(), 1),
                     core::fmt(r.median_lead_seconds / model::kSecondsPerDay, 1) + " days",
                     core::fmt(1000.0 * r.false_alarms_per_disk_year, 2)});
    }
    bench::print_table(std::cout, table, options);
  }
  std::cout << "Reading: hardware-rooted failure types are predictable hours-to-days ahead "
               "from their component-error signatures; protocol failures (software "
               "incompatibility) are not — matching the paper's per-type causal analysis "
               "and motivating type-specific resiliency (its future-work direction).\n";
}

void BM_PrecursorGeneration(benchmark::State& state) {
  auto fs = sim::run_standard(bench::kTimingScale, 1);
  for (auto _ : state) {
    const auto p =
        sim::generate_precursors(fs.fleet, fs.result, sim::PrecursorParams::standard());
    benchmark::DoNotOptimize(p.size());
  }
}
BENCHMARK(BM_PrecursorGeneration)->Unit(benchmark::kMillisecond);

void BM_PredictorEvaluation(benchmark::State& state) {
  auto fs = sim::run_standard(bench::kTimingScale, 1);
  const auto precursors =
      sim::generate_precursors(fs.fleet, fs.result, sim::PrecursorParams::standard());
  const auto ds = core::dataset_in_memory(fs.fleet, fs.result);
  for (auto _ : state) {
    const auto r = core::evaluate_predictor(ds, precursors, core::PredictorConfig{});
    benchmark::DoNotOptimize(r.alarms);
  }
}
BENCHMARK(BM_PredictorEvaluation)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  if (options.run_benchmarks) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  report(options);
  bench::finish_run("bench/prediction_eval", options);
  return 0;
}
