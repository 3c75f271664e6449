#include "core/correlation.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "stats/summary.h"

namespace storsubsim::core {

namespace {

/// Per-scope, per-window failure counts for one failure type.
/// Returns: counts[scope][window_index]; only complete windows are counted.
struct WindowCounts {
  std::size_t windows_observed = 0;
  // Ordered so downstream accumulation (dispersion_index sums doubles over
  // this) walks windows in a canonical order — hash-table iteration order is
  // an implementation detail the determinism contract must not depend on.
  std::map<std::uint64_t, std::size_t> counts;  // (scope, window) -> n
  std::vector<std::size_t> histogram;                     // histogram of counts per window
};

WindowCounts count_windows(const Dataset& dataset, Scope scope, model::FailureType type,
                           double window_seconds) {
  WindowCounts wc;
  const auto& inv = dataset.inventory();

  // Complete windows per scope: from the owning system's deployment to the
  // horizon.
  auto windows_for_system = [&](model::SystemId sys) -> std::size_t {
    const double observed = inv.horizon_seconds - inv.systems[sys.value()].deploy_time;
    return observed >= window_seconds
               ? static_cast<std::size_t>(std::floor(observed / window_seconds))
               : 0;
  };

  std::vector<std::size_t> scope_windows;  // per scope id
  if (scope == Scope::kShelf) {
    scope_windows.resize(inv.shelves.size(), 0);
    for (const auto& sh : inv.shelves) {
      if (dataset.system_selected(sh.system)) {
        scope_windows[sh.id.value()] = windows_for_system(sh.system);
      }
    }
  } else {
    scope_windows.resize(inv.raid_groups.size(), 0);
    for (const auto& g : inv.raid_groups) {
      if (dataset.system_selected(g.system)) {
        scope_windows[g.id.value()] = windows_for_system(g.system);
      }
    }
  }
  for (const auto w : scope_windows) wc.windows_observed += w;

  // Count events into (scope, window) cells.
  for (const auto& e : dataset.events()) {
    if (e.type != type) continue;
    const auto& disk = dataset.disk_of(e);
    std::uint32_t scope_id;
    if (scope == Scope::kShelf) {
      scope_id = disk.shelf.value();
    } else {
      if (!disk.raid_group.valid()) continue;
      scope_id = disk.raid_group.value();
    }
    const double deploy = inv.systems[disk.system.value()].deploy_time;
    const double offset = e.time - deploy;
    if (offset < 0.0) continue;
    const auto window = static_cast<std::size_t>(std::floor(offset / window_seconds));
    if (window >= scope_windows[scope_id]) continue;  // partial trailing window
    ++wc.counts[(static_cast<std::uint64_t>(scope_id) << 20u) | window];
  }

  // Histogram of per-window multiplicities (windows with zero events are
  // wc.windows_observed - counts.size()).
  for (const auto& [_, n] : wc.counts) {
    if (wc.histogram.size() <= n) wc.histogram.resize(n + 1, 0);
    ++wc.histogram[n];
  }
  return wc;
}

/// Store-backed twin of count_windows: the same (scope, window) cells fed
/// from the mapped columns, per shard, with scope ids rebased into the
/// global key space. A scope (shelf or RAID group) belongs to exactly one
/// shard, so the per-shard cells are disjoint and merging is plain map
/// insertion; windows_observed is an integer sum. Every accumulation is an
/// integer tally into an ordered map, so the two paths cannot diverge.
WindowCounts count_windows(const store::ShardStore& shards, Scope scope,
                           model::FailureType type, double window_seconds) {
  WindowCounts wc;
  const auto wanted = static_cast<std::uint8_t>(model::index_of(type));
  for (std::size_t s = 0; s < shards.shard_count(); ++s) {
    const store::EventStore& store = shards.shard(s);
    const double horizon = store.header().horizon_seconds;
    const auto deploy = store.topology(store::ColumnId::kSysDeploy)->as_f64();

    auto windows_for_system = [&](std::uint32_t sys) -> std::size_t {
      const double observed = horizon - deploy[sys];
      return observed >= window_seconds
                 ? static_cast<std::size_t>(std::floor(observed / window_seconds))
                 : 0;
    };

    const auto scope_systems =
        scope == Scope::kShelf
            ? store.topology(store::ColumnId::kShelfSystem)->as_u32()
            : store.topology(store::ColumnId::kRgSystem)->as_u32();
    std::vector<std::size_t> scope_windows(scope_systems.size(), 0);
    for (std::size_t i = 0; i < scope_systems.size(); ++i) {
      scope_windows[i] = windows_for_system(scope_systems[i]);
    }
    for (const auto w : scope_windows) wc.windows_observed += w;

    for (const auto cls : model::kAllSystemClasses) {
      const store::EventView& view = store.events(cls);
      for (std::size_t i = 0; i < view.size(); ++i) {
        if (view.type[i] != wanted) continue;
        std::uint32_t local_scope;
        std::uint64_t global_scope;
        if (scope == Scope::kShelf) {
          local_scope = view.shelf[i];
          global_scope = shards.global_shelf(s, local_scope);
        } else {
          if (!model::RaidGroupId(view.raid_group[i]).valid()) continue;
          local_scope = view.raid_group[i];
          global_scope = shards.global_raid_group(s, local_scope);
        }
        const double offset = view.time[i] - deploy[view.system[i]];
        if (offset < 0.0) continue;
        const auto window = static_cast<std::size_t>(std::floor(offset / window_seconds));
        if (window >= scope_windows[local_scope]) continue;  // partial trailing window
        ++wc.counts[(global_scope << 20u) | window];
      }
    }
  }

  for (const auto& [_, n] : wc.counts) {
    if (wc.histogram.size() <= n) wc.histogram.resize(n + 1, 0);
    ++wc.histogram[n];
  }
  return wc;
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
  const WindowCounts wc =
      source.dataset() != nullptr
          ? count_windows(*source.dataset(), scope, type, window_seconds)
          : count_windows(*source.shards(), scope, type, window_seconds);
  return result_from_counts(wc, scope, type, window_seconds);
}

std::vector<CorrelationResult> failure_correlation_all_types(const Source& source,
                                                             Scope scope,
                                                             double window_seconds) {
  std::vector<CorrelationResult> out;
  out.reserve(model::kAllFailureTypes.size());
  for (const auto type : model::kAllFailureTypes) {
    out.push_back(failure_correlation(source, scope, type, window_seconds));
  }
  return out;
}

std::vector<MultiplicityRow> failure_multiplicity(const Dataset& dataset, Scope scope,
                                                  model::FailureType type, std::size_t max_n,
                                                  double window_seconds) {
  const WindowCounts wc = count_windows(dataset, scope, type, window_seconds);
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

double dispersion_index(const Dataset& dataset, Scope scope, model::FailureType type,
                        double window_seconds) {
  const WindowCounts wc = count_windows(dataset, scope, type, window_seconds);
  if (wc.windows_observed == 0) return 0.0;
  stats::Accumulator acc;
  std::size_t nonzero = 0;
  for (const auto& [_, n] : wc.counts) {
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

CrossTypeResult cross_type_correlation(const Dataset& dataset, Scope scope,
                                       model::FailureType trigger,
                                       model::FailureType response, double window_seconds) {
  CrossTypeResult result;
  result.trigger = trigger;
  result.response = response;
  result.scope = scope;
  result.window_seconds = window_seconds;

  // Bucket trigger and response streams per scope.
  std::unordered_map<std::uint32_t, std::vector<double>> trigger_times;
  std::unordered_map<std::uint32_t, std::vector<double>> response_times;
  std::size_t response_count = 0;
  for (const auto& e : dataset.events()) {
    if (e.type != trigger && e.type != response) continue;
    const auto& disk = dataset.disk_of(e);
    std::uint32_t scope_id;
    if (scope == Scope::kShelf) {
      scope_id = disk.shelf.value();
    } else {
      if (!disk.raid_group.valid()) continue;
      scope_id = disk.raid_group.value();
    }
    if (e.type == trigger) trigger_times[scope_id].push_back(e.time);
    if (e.type == response) {
      response_times[scope_id].push_back(e.time);
      ++response_count;
    }
  }

  // The homogeneous-independence null: responses arrive as one Poisson
  // stream at the cohort's mean per-scope rate.
  const auto& inv = dataset.inventory();
  double scope_seconds = 0.0;
  if (scope == Scope::kShelf) {
    for (const auto& sh : inv.shelves) {
      if (!dataset.system_selected(sh.system)) continue;
      scope_seconds +=
          std::max(0.0, inv.horizon_seconds - inv.systems[sh.system.value()].deploy_time);
    }
  } else {
    for (const auto& g : inv.raid_groups) {
      if (!dataset.system_selected(g.system)) continue;
      scope_seconds +=
          std::max(0.0, inv.horizon_seconds - inv.systems[g.system.value()].deploy_time);
    }
  }
  result.baseline_rate_per_scope_second =
      scope_seconds > 0.0 ? static_cast<double>(response_count) / scope_seconds : 0.0;

  // Only order-insensitive integer counters accumulate across scopes.
  // storsim-lint: allow(unordered-iter) reason=per-scope integer tallies; no cross-scope FP accumulation or ordered output
  for (auto& [scope_id, triggers] : trigger_times) {
    std::sort(triggers.begin(), triggers.end());
    auto rit = response_times.find(scope_id);
    if (rit != response_times.end()) std::sort(rit->second.begin(), rit->second.end());
    for (const double t : triggers) {
      ++result.triggers;
      if (rit == response_times.end()) continue;
      const auto& responses = rit->second;
      const auto lo = std::upper_bound(responses.begin(), responses.end(), t);
      if (lo != responses.end() && *lo <= t + window_seconds) ++result.triggers_followed;
    }
  }
  return result;
}

}  // namespace storsubsim::core
