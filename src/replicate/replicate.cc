#include "replicate/replicate.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "core/afr.h"
#include "core/burstiness.h"
#include "core/correlation.h"
#include "core/lifetime.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "model/fleet_config.h"
#include "model/time.h"
#include "sim/simulator.h"
#include "stats/rng.h"
#include "stats/summary.h"
#include "util/parallel.h"

namespace storsubsim::replicate {

namespace {

/// The burstiness threshold the paper quotes (~48% of shelf gaps fall within
/// 10,000 s); also the headline number the tbf statistics track.
constexpr double kGapThresholdSeconds = 1e4;

struct StatDef {
  const char* name;
  core::StatisticId family;
};

/// Fixed table order — part of the STORREP1 contract.
constexpr StatDef kStatDefs[] = {
    {"afr.total", core::StatisticId::kAfrTotal},
    {"afr.disk", core::StatisticId::kAfrTotal},
    {"afr.interconnect", core::StatisticId::kAfrTotal},
    {"afr.protocol", core::StatisticId::kAfrTotal},
    {"afr.performance", core::StatisticId::kAfrTotal},
    {"tbf.shelf.within_1e4", core::StatisticId::kTbf},
    {"tbf.raid.within_1e4", core::StatisticId::kTbf},
    {"corr.shelf.disk.p1", core::StatisticId::kCorrelation},
    {"corr.shelf.disk.p2", core::StatisticId::kCorrelation},
    {"corr.shelf.disk.factor", core::StatisticId::kCorrelation},
    {"corr.raid.disk.factor", core::StatisticId::kCorrelation},
    {"lifetime.survival_1y", core::StatisticId::kLifetime},
    {"lifetime.censored_fraction", core::StatisticId::kLifetime},
};

constexpr std::size_t kStatCount = sizeof(kStatDefs) / sizeof(kStatDefs[0]);

/// Percentile of a sorted sample, linearly interpolated between order
/// statistics.
double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double h = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

/// The convergence test: CI half-width within ci_rel of |mean|. A zero mean
/// only converges once the interval collapses entirely.
bool meets_target(const stats::Interval& ci, double mean, double ci_rel) {
  return ci.half_width() <= ci_rel * std::abs(mean);
}

/// Extracts the headline-statistic vector (kStatDefs order) from one
/// simulated replicate's dataset.
std::vector<double> headline_statistics(const core::Dataset& dataset) {
  std::vector<double> out;
  out.reserve(kStatCount);

  const auto afr = core::compute_afr(dataset);
  out.push_back(afr.total_afr_pct());
  out.push_back(afr.afr_pct(model::FailureType::kDisk));
  out.push_back(afr.afr_pct(model::FailureType::kPhysicalInterconnect));
  out.push_back(afr.afr_pct(model::FailureType::kProtocol));
  out.push_back(afr.afr_pct(model::FailureType::kPerformance));

  const auto tbf_shelf = core::time_between_failures(dataset, core::Scope::kShelf);
  const auto tbf_raid = core::time_between_failures(dataset, core::Scope::kRaidGroup);
  out.push_back(tbf_shelf.fraction_within(core::kOverallSeries, kGapThresholdSeconds));
  out.push_back(tbf_raid.fraction_within(core::kOverallSeries, kGapThresholdSeconds));

  const auto corr_shelf = core::failure_correlation(dataset, core::Scope::kShelf,
                                                    model::FailureType::kDisk);
  const auto corr_raid = core::failure_correlation(dataset, core::Scope::kRaidGroup,
                                                   model::FailureType::kDisk);
  out.push_back(corr_shelf.empirical_p1());
  out.push_back(corr_shelf.empirical_p2());
  out.push_back(corr_shelf.correlation_factor());
  out.push_back(corr_raid.correlation_factor());

  const auto life = core::disk_lifetime_report(dataset);
  out.push_back(life.survival.survival(model::from_years(1.0)));
  out.push_back(life.censored_fraction);

  return out;
}

}  // namespace

std::string_view to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kMaxReplicates: return "max-replicates";
    case StopReason::kConverged: return "converged";
  }
  return "unknown";
}

ReplicateSummary run_replication(const ReplicateOptions& options) {
  ReplicateOptions opts = options;
  if (opts.max_replicates == 0) opts.max_replicates = 1;
  if (opts.batch == 0) opts.batch = 1;
  if (opts.min_replicates == 0) opts.min_replicates = 1;
  opts.min_replicates = std::min(opts.min_replicates, opts.max_replicates);

  const stats::Rng root = stats::make_root_rng(opts.seed);

  ReplicateSummary summary;
  summary.options = opts;
  summary.values.assign(kStatCount, {});
  for (auto& column : summary.values) column.reserve(opts.max_replicates);

  std::vector<std::size_t> stopped_at(kStatCount, 0);
  std::size_t done = 0;
  StopReason reason = StopReason::kMaxReplicates;

  while (done < opts.max_replicates) {
    const std::size_t batch_end = std::min(done + opts.batch, opts.max_replicates);
    const std::size_t batch_size = batch_end - done;

    // Fan the batch across the pool into pre-sized slots; replicate r's seed
    // comes from root.stream(kSeedStream, r) — independent of scheduling.
    std::vector<std::vector<double>> slots(batch_size);
    util::parallel_for(batch_size, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t r = done + i;
        stats::Rng rep = root.stream(kSeedStream, r);
        const std::uint64_t rep_seed = rep();
        const auto sim = sim::simulate_fleet(model::standard_fleet_config(opts.scale, rep_seed));
        const core::Dataset dataset = core::dataset_in_memory(sim.fleet, sim.result);
        slots[i] = headline_statistics(dataset);
      }
    });
    for (std::size_t i = 0; i < batch_size; ++i) {  // merge in index order
      for (std::size_t s = 0; s < kStatCount; ++s) {
        summary.values[s].push_back(slots[i][s]);
      }
    }
    done = batch_end;

    // Stopping rule: only at batch boundaries, only on the in-order prefix,
    // so the decision is a pure function of (seed, options).
    if (opts.ci_rel > 0.0 && done >= opts.min_replicates) {
      bool all_converged = true;
      for (std::size_t s = 0; s < kStatCount; ++s) {
        if (stopped_at[s] != 0) continue;
        stats::Accumulator acc;
        for (const double v : summary.values[s]) acc.add(v);
        const stats::Interval ci =
            stats::mean_ci(acc.mean(), acc.variance(), acc.count(), opts.confidence);
        if (meets_target(ci, acc.mean(), opts.ci_rel)) {
          stopped_at[s] = done;
        } else {
          all_converged = false;
        }
      }
      if (all_converged) {
        reason = StopReason::kConverged;
        break;
      }
    }
  }

  summary.replicates = done;
  summary.stop_reason = reason;

  summary.stats.reserve(kStatCount);
  for (std::size_t s = 0; s < kStatCount; ++s) {
    StatSummary stat;
    stat.name = kStatDefs[s].name;
    stat.family = kStatDefs[s].family;
    stat.stopped_at = stopped_at[s];
    stats::Accumulator acc;
    for (const double v : summary.values[s]) acc.add(v);
    stat.mean = acc.mean();
    stat.stddev = acc.stddev();
    stat.ci = stats::mean_ci(acc.mean(), acc.variance(), acc.count(), opts.confidence);
    std::vector<double> sorted = summary.values[s];
    std::sort(sorted.begin(), sorted.end());
    stat.p025 = percentile_sorted(sorted, 0.025);
    stat.p500 = percentile_sorted(sorted, 0.5);
    stat.p975 = percentile_sorted(sorted, 0.975);
    summary.stats.push_back(std::move(stat));
  }
  return summary;
}

std::string render_summary(const ReplicateSummary& summary, bool csv) {
  const auto& opts = summary.options;

  core::TextTable provenance({"field", "value"});
  provenance.add_row({"seed", std::to_string(opts.seed)});
  provenance.add_row({"scale", core::fmt(opts.scale, 4)});
  provenance.add_row({"seed stream", std::string(kSeedStream)});
  provenance.add_row({"replicates", std::to_string(summary.replicates)});
  provenance.add_row({"max replicates", std::to_string(opts.max_replicates)});
  provenance.add_row({"min replicates", std::to_string(opts.min_replicates)});
  provenance.add_row({"batch", std::to_string(opts.batch)});
  provenance.add_row({"ci rel target", core::fmt(opts.ci_rel, 4)});
  provenance.add_row({"confidence", core::fmt(opts.confidence, 2)});
  provenance.add_row({"stop reason", std::string(to_string(summary.stop_reason))});

  core::TextTable table({"statistic", "family", "n", "mean", "stddev", "ci lo", "ci hi",
                         "rel hw", "p2.5", "p50", "p97.5", "stopped at"});
  for (const auto& stat : summary.stats) {
    const double rel_hw =
        stat.mean == 0.0 ? 0.0 : stat.ci.half_width() / std::abs(stat.mean);
    table.add_row({stat.name, std::string(core::report_name(stat.family)),
                   std::to_string(summary.replicates), core::fmt(stat.mean, 4),
                   core::fmt(stat.stddev, 4), core::fmt(stat.ci.lower, 4),
                   core::fmt(stat.ci.upper, 4), core::fmt_pct(rel_hw, 1),
                   core::fmt(stat.p025, 4), core::fmt(stat.p500, 4),
                   core::fmt(stat.p975, 4),
                   stat.stopped_at == 0 ? "-" : std::to_string(stat.stopped_at)});
  }
  return (csv ? provenance.to_csv() : provenance.to_text()) +
         (csv ? table.to_csv() : table.to_text());
}

}  // namespace storsubsim::replicate
