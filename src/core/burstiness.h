// Temporal locality ("burstiness") of failures within shelves and RAID
// groups (paper Section 5.1, Figure 9).
//
// For every shelf (or RAID group) we collect the detection times of its
// failures, drop consecutive duplicates from the same disk (the paper:
// "we filtered out all duplicate failures" — the object of study is the
// time between failures of *different* disks), and pool the resulting
// inter-arrival gaps across all scopes of the same kind.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "core/source.h"
#include "stats/ecdf.h"

namespace storsubsim::core {

/// Index 0..3 = the four failure types; index 4 = overall (all types pooled).
inline constexpr std::size_t kOverallSeries = 4;
inline constexpr std::size_t kSeriesCount = 5;

struct BurstinessResult {
  Scope scope = Scope::kShelf;
  /// Inter-arrival gaps (seconds) pooled over all scopes, per series.
  std::array<std::vector<double>, kSeriesCount> gaps;

  /// Empirical CDF of one series.
  stats::Ecdf ecdf(std::size_t series) const;
  /// Fraction of gaps below `seconds` (the paper quotes the fraction within
  /// 10,000 s: ~48% per shelf, ~30% per RAID group overall).
  double fraction_within(std::size_t series, double seconds) const;
  std::size_t gap_count(std::size_t series) const { return gaps[series].size(); }
};

/// Pooled inter-arrival gaps per scope kind — the unified entry point, over
/// the Source's event rows (every backend and cohort alike).
BurstinessResult time_between_failures(const Source& source, Scope scope);

/// Convenience index for a failure-type series.
constexpr std::size_t series_of(model::FailureType type) { return model::index_of(type); }

}  // namespace storsubsim::core
