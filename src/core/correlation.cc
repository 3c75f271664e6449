#include "core/correlation.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <unordered_map>
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

using TypeMask = std::array<bool, kTypeCount>;

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

/// Sweeps the events once, filing every failure of a wanted type that lands
/// in a complete window of its scope under that (scope, window) cell.
/// Returns the cohort's complete scope-windows: from the owning system's
/// deployment to the horizon, per scope.
std::size_t collect_cells(const Dataset& dataset, Scope scope, double window_seconds,
                          const TypeMask& wanted, std::vector<Cell>& cells) {
  const auto& inv = dataset.inventory();
  auto windows_for_system = [&](model::SystemId sys) {
    return complete_windows(inv.horizon_seconds - inv.systems[sys.value()].deploy_time,
                            window_seconds);
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
  std::size_t windows_observed = 0;
  for (const auto w : scope_windows) windows_observed += w;

  cells.reserve(dataset.events().size());
  for (const auto& e : dataset.events()) {
    const std::size_t t = model::index_of(e.type);
    if (!wanted[t]) continue;
    const auto& disk = dataset.disk_of(e);
    std::uint32_t scope_id;
    if (scope == Scope::kShelf) {
      scope_id = disk.shelf.value();
    } else {
      if (!disk.raid_group.valid()) continue;
      scope_id = disk.raid_group.value();
    }
    const double offset = e.time - inv.systems[disk.system.value()].deploy_time;
    if (offset < 0.0) continue;
    const auto window = static_cast<std::size_t>(std::floor(offset / window_seconds));
    if (window >= scope_windows[scope_id]) continue;  // partial trailing window
    cells.push_back(Cell{scope_id, window, static_cast<std::uint8_t>(t)});
  }
  return windows_observed;
}

/// Store-backed twin of the Dataset sweep: the same cells fed from the
/// mapped columns, per shard, with scope ids rebased into the global id
/// space. A scope (shelf or RAID group) belongs to exactly one shard, so
/// the per-shard cells are disjoint and windows_observed is an integer sum;
/// the cells are ordered before counting, so the two paths cannot diverge.
std::size_t collect_cells(const store::ShardStore& shards, Scope scope, double window_seconds,
                          const TypeMask& wanted, std::vector<Cell>& cells) {
  std::size_t windows_observed = 0;
  cells.reserve(static_cast<std::size_t>(shards.manifest().events));
  for (std::size_t s = 0; s < shards.shard_count(); ++s) {
    const store::EventStore& store = shards.shard(s);
    const double horizon = store.header().horizon_seconds;
    const auto deploy = store.topology(store::ColumnId::kSysDeploy)->as_f64();

    const auto scope_systems =
        scope == Scope::kShelf
            ? store.topology(store::ColumnId::kShelfSystem)->as_u32()
            : store.topology(store::ColumnId::kRgSystem)->as_u32();
    std::vector<std::size_t> scope_windows(scope_systems.size(), 0);
    for (std::size_t i = 0; i < scope_systems.size(); ++i) {
      scope_windows[i] = complete_windows(horizon - deploy[scope_systems[i]], window_seconds);
      windows_observed += scope_windows[i];
    }

    for (const auto cls : model::kAllSystemClasses) {
      const store::EventView& view = store.events(cls);
      for (std::size_t i = 0; i < view.size(); ++i) {
        const std::size_t t = view.type[i];
        if (!wanted[t]) continue;
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
        cells.push_back(Cell{global_scope, window, static_cast<std::uint8_t>(t)});
      }
    }
  }
  return windows_observed;
}

/// Window counts for the failure types in `types`, indexed by type; one
/// sweep of the source covers all of them. The cells are grouped by scope,
/// and each scope's few cells ordered by (type, window) and run-length
/// counted, so every type's counts come out in (scope, window) order.
std::array<WindowCounts, kTypeCount> count_windows(
    const Source& source, Scope scope, double window_seconds,
    std::span<const model::FailureType> types) {
  TypeMask wanted{};
  for (const auto type : types) wanted[model::index_of(type)] = true;
  std::vector<Cell> cells;
  const std::size_t windows_observed =
      source.dataset() != nullptr
          ? collect_cells(*source.dataset(), scope, window_seconds, wanted, cells)
          : collect_cells(*source.shards(), scope, window_seconds, wanted, cells);

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
