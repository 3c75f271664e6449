// Percentile bootstrap for arbitrary statistics — used where no closed-form
// interval exists (e.g. the empirical-vs-theoretical P(2) correlation factor).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "stats/intervals.h"
#include "stats/rng.h"

namespace storsubsim::stats {

/// Draws `replicates` bootstrap resamples of `sample`, applies `statistic`
/// to each, and returns the percentile CI plus the point estimate on the
/// original sample.
///
/// Replicates are split across util::thread_count() workers; each replicate
/// draws from its own substream of a fork of `rng`, so results are
/// deterministic given `rng` and bit-identical for any thread count.
/// `statistic` may be called concurrently and must be thread-safe.
// storsim-lint: allow(unused-export) reason=deferred: only Bootstrap.* and ThreadInvariance tests call it
Interval bootstrap_ci(std::span<const double> sample,
                      const std::function<double(std::span<const double>)>& statistic,
                      double confidence, std::size_t replicates, Rng& rng);

/// Raw bootstrap distribution of a statistic (sorted ascending).
// storsim-lint: allow(unused-export) reason=deferred: only Bootstrap.DistributionSortedAndSized calls it
std::vector<double> bootstrap_distribution(
    std::span<const double> sample,
    const std::function<double(std::span<const double>)>& statistic, std::size_t replicates,
    Rng& rng);

}  // namespace storsubsim::stats
