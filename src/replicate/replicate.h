// Monte Carlo replication engine: N keyed-substream replicates of the whole
// simulate -> classify pipeline, with per-statistic confidence intervals.
//
// One simulated fleet is a single draw from the generative model; any
// headline number it yields (total AFR, burstiness fraction, correlation
// factor, ...) is a point estimate with unquantified sampling error. The
// replication driver re-runs the pipeline under independent seed substreams
// and summarizes each headline statistic across replicates: mean, spread, a
// t-based CI on the mean, and empirical percentiles.
//
// Determinism contract: replicate r's seed is `root.stream("replicate", r)`,
// keyed off the root seed alone — never off thread count, scheduling, or how
// much randomness any other replicate consumed. Replicates are computed into
// pre-sized slots under util::parallel_for and appended in index order, so
// the summary (and its serialized STORREP1 table) is bit-identical at any
// thread count. Sequential stopping is evaluated only at batch boundaries on
// the in-order prefix, which keeps the early-stop decision deterministic too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis_request.h"
#include "stats/intervals.h"

namespace storsubsim::replicate {

/// Seed-substream label for replicate seeds; recorded in run manifests as
/// provenance ("seed_stream") so a table can be tied back to its draws.
inline constexpr std::string_view kSeedStream = "replicate";

struct ReplicateOptions {
  double scale = 0.05;           ///< fleet scale per replicate
  std::uint64_t seed = 20080226; ///< root seed; replicate r uses stream(kSeedStream, r)
  std::size_t max_replicates = 64;
  std::size_t min_replicates = 8;  ///< no stopping checks before this many
  std::size_t batch = 8;           ///< replicates per round; stopping checked at batch ends
  double confidence = 0.95;
  /// Relative half-width target: stop once every statistic's CI half-width
  /// is <= ci_rel * |mean|. 0 disables early stopping (fixed-N run).
  double ci_rel = 0.0;
};

enum class StopReason : std::uint8_t {
  kMaxReplicates = 0,  ///< ran the full budget
  kConverged = 1,      ///< every statistic met the ci_rel target early
};

std::string_view to_string(StopReason reason) noexcept;

/// One headline statistic summarized across replicates.
struct StatSummary {
  std::string name;                  ///< e.g. "afr.total", "corr.shelf.disk.factor"
  core::StatisticId family = core::StatisticId::kAfrTotal;
  /// First replicate count at which this statistic's CI met the ci_rel
  /// target (0 = never met it). Only batch-boundary prefixes are eligible.
  std::size_t stopped_at = 0;
  double mean = 0.0;
  double stddev = 0.0;           ///< sample (n-1) standard deviation
  stats::Interval ci;            ///< t-based CI on the mean
  double p025 = 0.0, p500 = 0.0, p975 = 0.0;  ///< empirical percentiles
};

struct ReplicateSummary {
  ReplicateOptions options;
  std::size_t replicates = 0;  ///< replicates actually run
  StopReason stop_reason = StopReason::kMaxReplicates;
  std::vector<StatSummary> stats;
  /// Raw per-replicate values, stat-major: values[s][r] for stats[s],
  /// replicate r. Kept so downstream consumers can re-derive any summary.
  std::vector<std::vector<double>> values;
};

/// Runs the replication driver: simulates replicates under keyed substreams,
/// fanned across the process-wide thread pool, accumulating until every
/// statistic converges (ci_rel > 0) or the budget is exhausted.
ReplicateSummary run_replication(const ReplicateOptions& options);

/// Renders the summary as the provenance table followed by the per-statistic
/// table — the exact bytes `storsubsim replicate`, `analyze --replicates`
/// and the daemon's replicate_summary endpoint all emit.
std::string render_summary(const ReplicateSummary& summary, bool csv);

}  // namespace storsubsim::replicate
