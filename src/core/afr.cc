#include "core/afr.h"

#include <algorithm>
#include <map>

#include "stats/summary.h"

namespace storsubsim::core {

using model::FailureType;

std::size_t AfrBreakdown::total_events() const {
  std::size_t n = 0;
  for (const auto c : events) n += c;
  return n;
}

double AfrBreakdown::afr_pct(FailureType type) const {
  if (disk_years <= 0.0) return 0.0;
  return 100.0 * static_cast<double>(events[model::index_of(type)]) / disk_years;
}

double AfrBreakdown::total_afr_pct() const {
  if (disk_years <= 0.0) return 0.0;
  return 100.0 * static_cast<double>(total_events()) / disk_years;
}

double AfrBreakdown::share(FailureType type) const {
  const auto total = total_events();
  if (total == 0) return 0.0;
  return static_cast<double>(events[model::index_of(type)]) / static_cast<double>(total);
}

stats::Interval AfrBreakdown::afr_ci(FailureType type, double confidence) const {
  const auto ci =
      stats::rate_ci_garwood(events[model::index_of(type)], disk_years, confidence);
  return stats::Interval{100.0 * ci.lower, 100.0 * ci.upper, 100.0 * ci.point};
}

AfrBreakdown compute_afr(const Source& source, std::string label) {
  AfrBreakdown b;
  b.label = std::move(label);
  b.disk_years = source.disk_years().total;
  source.for_each_event([&](const EventRow& e) { ++b.events[model::index_of(e.type)]; });
  return b;
}

std::vector<AfrBreakdown> afr_by_class(const Source& source) {
  const DiskYears years = source.disk_years();
  std::array<AfrBreakdown, store::kClassCount> by_class;
  source.for_each_event(
      [&](const EventRow& e) { ++by_class[model::index_of(e.cls)].events[model::index_of(e.type)]; });
  std::vector<AfrBreakdown> out;
  for (const auto cls : model::kAllSystemClasses) {
    const std::size_t c = model::index_of(cls);
    if (years.systems_by_class[c] == 0) continue;  // empty cohort
    by_class[c].label = std::string(model::to_string(cls));
    by_class[c].disk_years = years.by_class[c];
    out.push_back(std::move(by_class[c]));
  }
  return out;
}

std::vector<AfrBreakdown> afr_by_disk_model(const Source& source) {
  // Discover models present among selected systems, in name order.
  std::map<model::DiskModelName, bool> present;
  source.for_each_system(
      [&](const log::InventorySystem& sys) { present[sys.disk_model] = true; });
  std::vector<AfrBreakdown> out;
  for (const auto& [name, _] : present) {
    Filter f;
    f.disk_model = name;
    out.push_back(compute_afr(Source(source, f), "Disk " + model::to_string(name)));
  }
  return out;
}

std::vector<AfrBreakdown> afr_by_path_config(const Source& source) {
  std::vector<AfrBreakdown> out;
  for (const auto paths :
       {model::PathConfig::kSinglePath, model::PathConfig::kDualPath}) {
    Filter f;
    f.paths = paths;
    const Source cohort(source, f);
    if (cohort.count().systems == 0) continue;
    out.push_back(compute_afr(cohort, std::string(model::to_string(paths))));
  }
  return out;
}

std::vector<StabilityRow> afr_stability_by_disk_model(const Source& source) {
  // Environment = (system class, shelf model). For each disk model, compute
  // the per-environment disk-failure AFR and subsystem AFR, then summarize
  // their spread.
  using EnvKey = std::pair<model::SystemClass, model::ShelfModelName>;
  std::map<model::DiskModelName, std::map<EnvKey, bool>> environments;
  source.for_each_system([&](const log::InventorySystem& sys) {
    environments[sys.disk_model][EnvKey(sys.cls, sys.shelf_model)] = true;
  });

  std::vector<StabilityRow> rows;
  for (const auto& [disk_model, envs] : environments) {
    if (envs.size() < 2) continue;
    stats::Accumulator disk_afr;
    stats::Accumulator subsystem_afr;
    for (const auto& [env, _] : envs) {
      Filter f;
      f.disk_model = disk_model;
      f.system_class = env.first;
      f.shelf_model = env.second;
      const auto b = compute_afr(Source(source, f));
      if (b.disk_years <= 0.0) continue;
      disk_afr.add(b.afr_pct(FailureType::kDisk));
      subsystem_afr.add(b.total_afr_pct());
    }
    if (disk_afr.count() < 2) continue;
    StabilityRow row;
    row.disk_model = model::to_string(disk_model);
    row.environments = disk_afr.count();
    row.mean_disk_afr = disk_afr.mean();
    row.rel_stddev_disk_afr =
        disk_afr.mean() > 0.0 ? disk_afr.stddev() / disk_afr.mean() : 0.0;
    row.mean_subsystem_afr = subsystem_afr.mean();
    row.rel_stddev_subsystem_afr =
        subsystem_afr.mean() > 0.0 ? subsystem_afr.stddev() / subsystem_afr.mean() : 0.0;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace storsubsim::core
