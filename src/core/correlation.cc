#include "core/correlation.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

#include "core/scope_buckets.h"
#include "stats/summary.h"

namespace storsubsim::core {

namespace {

constexpr std::size_t kTypeCount = model::kAllFailureTypes.size();

/// One failure filed under its (scope, window) cell. The scope and the
/// window index are separate fields, so no two cells alias however many
/// windows a scope spans.
struct Cell {
  std::uint64_t scope_id;
  std::uint64_t window;
  std::uint8_t type;
};

/// Per-scope, per-window failure counts for one failure type; only complete
/// windows are counted.
struct WindowCounts {
  std::size_t windows_observed = 0;
  // Failures per non-empty cell in (scope, window) order, so downstream
  // accumulation (dispersion_index sums doubles over this) walks windows in
  // a canonical order.
  std::vector<std::size_t> counts;
  std::vector<std::size_t> histogram;  // histogram of counts per window
};

std::size_t complete_windows(double observed, double window_seconds) {
  return observed >= window_seconds
             ? static_cast<std::size_t>(std::floor(observed / window_seconds))
             : 0;
}

/// Window counts for the failure types in `types`, indexed by type; one
/// sweep of the source covers all of them. Every failure of a wanted type
/// that lands in a complete window of its scope is filed under that (scope,
/// window) cell; a scope's windows run from its owning system's deployment
/// (the event's system's) to the horizon. The cells are grouped by scope,
/// and each scope's few cells ordered by (type, window) and run-length
/// counted, so every type's counts come out in (scope, window) order.
std::array<WindowCounts, kTypeCount> count_windows(
    const Source& source, Scope scope, double window_seconds,
    std::span<const model::FailureType> types) {
  std::array<bool, kTypeCount> wanted{};
  for (const auto type : types) wanted[model::index_of(type)] = true;
  const double horizon = source.horizon_seconds();
  std::size_t windows_observed = 0;
  source.for_each_scope(scope, [&](const ScopeRow& r) {
    windows_observed += complete_windows(horizon - r.deploy_time, window_seconds);
  });
  std::vector<Cell> cells;
  cells.reserve(source.event_records());
  source.for_each_event([&](const EventRow& e) {
    const std::size_t t = model::index_of(e.type);
    const std::uint32_t scope_id = e.scope_id(scope);
    if (!wanted[t] || scope_id == kNoScope) return;
    const double offset = e.time - e.deploy_time;
    if (offset < 0.0) return;
    const auto window = static_cast<std::size_t>(std::floor(offset / window_seconds));
    if (window >= complete_windows(horizon - e.deploy_time, window_seconds)) {
      return;  // partial trailing window
    }
    cells.push_back(Cell{scope_id, window, static_cast<std::uint8_t>(t)});
  });

  std::array<WindowCounts, kTypeCount> out;
  for (auto& wc : out) wc.windows_observed = windows_observed;
  ScopeBuckets<Cell> buckets = bucket_by_scope(cells);
  for (std::size_t sc = 0; sc < buckets.scopes(); ++sc) {
    const std::span<Cell> c = buckets.scope(sc);
    std::sort(c.begin(), c.end(), [](const Cell& a, const Cell& b) {
      return a.type != b.type ? a.type < b.type : a.window < b.window;
    });
    for (std::size_t i = 0; i < c.size();) {
      std::size_t j = i + 1;
      while (j < c.size() && c[j].type == c[i].type && c[j].window == c[i].window) ++j;
      const std::size_t n = j - i;
      WindowCounts& wc = out[c[i].type];
      wc.counts.push_back(n);
      // Histogram of per-window multiplicities (windows with zero events
      // are windows_observed - counts.size()).
      if (wc.histogram.size() <= n) wc.histogram.resize(n + 1, 0);
      ++wc.histogram[n];
      i = j;
    }
  }
  return out;
}

WindowCounts count_windows(const Source& source, Scope scope, model::FailureType type,
                           double window_seconds) {
  const model::FailureType types[] = {type};
  return std::move(count_windows(source, scope, window_seconds, types)[model::index_of(type)]);
}

CorrelationResult result_from_counts(const WindowCounts& wc, Scope scope,
                                     model::FailureType type, double window_seconds) {
  CorrelationResult r;
  r.scope = scope;
  r.type = type;
  r.window_seconds = window_seconds;
  r.windows_observed = wc.windows_observed;
  r.windows_with_one = wc.histogram.size() > 1 ? wc.histogram[1] : 0;
  r.windows_with_two = wc.histogram.size() > 2 ? wc.histogram[2] : 0;
  return r;
}

}  // namespace

double CorrelationResult::empirical_p1() const {
  return windows_observed == 0
             ? 0.0
             : static_cast<double>(windows_with_one) / static_cast<double>(windows_observed);
}

double CorrelationResult::empirical_p2() const {
  return windows_observed == 0
             ? 0.0
             : static_cast<double>(windows_with_two) / static_cast<double>(windows_observed);
}

double CorrelationResult::theoretical_p2() const {
  const double p1 = empirical_p1();
  return 0.5 * p1 * p1;
}

double CorrelationResult::correlation_factor() const {
  const double theory = theoretical_p2();
  return theory > 0.0 ? empirical_p2() / theory : 0.0;
}

stats::Interval CorrelationResult::empirical_p2_ci(double confidence) const {
  return stats::proportion_ci_wilson(windows_with_two, windows_observed, confidence);
}

stats::TTestResult CorrelationResult::independence_test() const {
  // Compare the observed count of 2-failure windows against the count the
  // independence hypothesis predicts, as a two-proportion test over the same
  // number of windows (the paper reports this comparison as a t-test).
  const auto expected = static_cast<std::size_t>(
      std::llround(theoretical_p2() * static_cast<double>(windows_observed)));
  return stats::two_proportion_test(windows_with_two, windows_observed, expected,
                                    windows_observed);
}

CorrelationResult failure_correlation(const Source& source, Scope scope,
                                      model::FailureType type, double window_seconds) {
  return result_from_counts(count_windows(source, scope, type, window_seconds), scope, type,
                            window_seconds);
}

std::vector<CorrelationResult> failure_correlation_all_types(const Source& source,
                                                             Scope scope,
                                                             double window_seconds) {
  const auto counts =
      count_windows(source, scope, window_seconds, model::kAllFailureTypes);
  std::vector<CorrelationResult> out;
  out.reserve(kTypeCount);
  for (const auto type : model::kAllFailureTypes) {
    out.push_back(
        result_from_counts(counts[model::index_of(type)], scope, type, window_seconds));
  }
  return out;
}

std::vector<MultiplicityRow> failure_multiplicity(const Source& source, Scope scope,
                                                  model::FailureType type, std::size_t max_n,
                                                  double window_seconds) {
  const WindowCounts wc = count_windows(source, scope, type, window_seconds);
  std::vector<MultiplicityRow> rows;
  if (wc.windows_observed == 0) return rows;
  const double p1 = wc.histogram.size() > 1 ? static_cast<double>(wc.histogram[1]) /
                                                  static_cast<double>(wc.windows_observed)
                                            : 0.0;
  double factorial = 1.0;
  double p1_power = p1;
  for (std::size_t n = 1; n <= max_n; ++n) {
    MultiplicityRow row;
    row.n = n;
    row.empirical = (wc.histogram.size() > n ? static_cast<double>(wc.histogram[n]) : 0.0) /
                    static_cast<double>(wc.windows_observed);
    row.theoretical = p1_power / factorial;
    rows.push_back(row);
    p1_power *= p1;
    factorial *= static_cast<double>(n + 1);
  }
  return rows;
}

double dispersion_index(const Source& source, Scope scope, model::FailureType type,
                        double window_seconds) {
  const WindowCounts wc = count_windows(source, scope, type, window_seconds);
  if (wc.windows_observed == 0) return 0.0;
  stats::Accumulator acc;
  std::size_t nonzero = 0;
  for (const std::size_t n : wc.counts) {
    acc.add(static_cast<double>(n));
    ++nonzero;
  }
  for (std::size_t i = nonzero; i < wc.windows_observed; ++i) acc.add(0.0);
  const double mean = acc.mean();
  return mean > 0.0 ? acc.variance() / mean : 0.0;
}

double CrossTypeResult::baseline_probability() const {
  return -std::expm1(-baseline_rate_per_scope_second * window_seconds);
}

double CrossTypeResult::lift() const {
  const double base = baseline_probability();
  return base > 0.0 ? conditional_probability() / base : 0.0;
}

CrossTypeResult cross_type_correlation(const Source& source, Scope scope,
                                       model::FailureType trigger,
                                       model::FailureType response, double window_seconds) {
  CrossTypeResult result;
  result.trigger = trigger;
  result.response = response;
  result.scope = scope;
  result.window_seconds = window_seconds;

  // Trigger and response streams, grouped by scope.
  struct ScopedTime {
    std::uint32_t scope_id;
    double time;
    model::FailureType type;
  };
  std::vector<ScopedTime> streams;
  std::size_t response_count = 0;
  source.for_each_event([&](const EventRow& e) {
    if (e.type != trigger && e.type != response) return;
    const std::uint32_t scope_id = e.scope_id(scope);
    if (scope_id == kNoScope) return;
    streams.push_back(ScopedTime{scope_id, e.time, e.type});
    if (e.type == response) ++response_count;
  });

  // The homogeneous-independence null: responses arrive as one Poisson
  // stream at the cohort's mean per-scope rate. Scopes are summed in id
  // order.
  const double horizon = source.horizon_seconds();
  double scope_seconds = 0.0;
  source.for_each_scope(scope, [&](const ScopeRow& r) {
    scope_seconds += std::max(0.0, horizon - r.deploy_time);
  });
  result.baseline_rate_per_scope_second =
      scope_seconds > 0.0 ? static_cast<double>(response_count) / scope_seconds : 0.0;

  ScopeBuckets<ScopedTime> buckets = bucket_by_scope(streams);
  std::vector<double> responses;
  for (std::size_t sc = 0; sc < buckets.scopes(); ++sc) {
    const std::span<ScopedTime> stream = buckets.scope(sc);
    responses.clear();
    for (const ScopedTime& r : stream) {
      if (r.type == response) responses.push_back(r.time);
    }
    std::sort(responses.begin(), responses.end());
    for (const ScopedTime& r : stream) {
      if (r.type != trigger) continue;
      ++result.triggers;
      const auto next = std::upper_bound(responses.begin(), responses.end(), r.time);
      if (next != responses.end() && *next <= r.time + window_seconds) {
        ++result.triggers_followed;
      }
    }
  }
  return result;
}

}  // namespace storsubsim::core
