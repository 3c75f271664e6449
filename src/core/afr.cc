#include "core/afr.h"

#include <algorithm>
#include <map>

#include "stats/summary.h"

namespace storsubsim::core {

namespace {

using model::FailureType;

AfrBreakdown accumulate(const Dataset& dataset, std::string label) {
  AfrBreakdown b;
  b.label = std::move(label);
  b.disk_years = dataset.disk_exposure_years();
  for (const auto& e : dataset.events()) {
    ++b.events[model::index_of(e.type)];
  }
  return b;
}

AfrBreakdown accumulate(const store::ShardStore& shards, std::string label) {
  AfrBreakdown b;
  b.label = std::move(label);
  // Denominator from the store's exposure table (the merged MANIFEST table
  // is bit-identical to the single-file footer); event counts are integer
  // sums over shards.
  b.disk_years = shards.exposure().total_disk_years;
  for (std::size_t i = 0; i < shards.shard_count(); ++i) {
    const store::EventStore& store = shards.shard(i);
    for (const auto cls : model::kAllSystemClasses) {
      for (const auto type : store.events(cls).type) ++b.events[type];
    }
  }
  return b;
}

std::vector<AfrBreakdown> by_class(const Dataset& dataset) {
  std::vector<AfrBreakdown> out;
  for (const auto cls : model::kAllSystemClasses) {
    Filter f;
    f.system_class = cls;
    const Dataset cohort = dataset.filter(f);
    if (cohort.selected_system_count() == 0) continue;
    out.push_back(compute_afr(cohort, std::string(model::to_string(cls))));
  }
  return out;
}

std::vector<AfrBreakdown> by_class(const store::ShardStore& shards) {
  const store::ExposureTable& exposure = shards.exposure();
  std::vector<AfrBreakdown> out;
  for (const auto cls : model::kAllSystemClasses) {
    const std::size_t c = model::index_of(cls);
    if (exposure.class_system_count[c] == 0) continue;  // empty cohort
    AfrBreakdown b;
    b.label = std::string(model::to_string(cls));
    b.disk_years = exposure.class_disk_years[c];
    for (std::size_t i = 0; i < shards.shard_count(); ++i) {
      for (const auto type : shards.shard(i).events(cls).type) ++b.events[type];
    }
    out.push_back(std::move(b));
  }
  return out;
}

}  // namespace

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
  if (const Dataset* d = source.dataset()) return accumulate(*d, std::move(label));
  return accumulate(*source.shards(), std::move(label));
}

std::vector<AfrBreakdown> afr_by_class(const Source& source) {
  if (const Dataset* d = source.dataset()) return by_class(*d);
  return by_class(*source.shards());
}

std::vector<AfrBreakdown> afr_by_disk_model(const Dataset& dataset) {
  // Discover models present among selected systems, in name order.
  std::map<model::DiskModelName, bool> present;
  for (const auto& sys : dataset.inventory().systems) {
    if (dataset.system_selected(sys.id)) present[sys.disk_model] = true;
  }
  std::vector<AfrBreakdown> out;
  for (const auto& [name, _] : present) {
    Filter f;
    f.disk_model = name;
    const Dataset cohort = dataset.filter(f);
    out.push_back(compute_afr(cohort, "Disk " + model::to_string(name)));
  }
  return out;
}

std::vector<AfrBreakdown> afr_by_path_config(const Dataset& dataset) {
  std::vector<AfrBreakdown> out;
  for (const auto paths :
       {model::PathConfig::kSinglePath, model::PathConfig::kDualPath}) {
    Filter f;
    f.paths = paths;
    const Dataset cohort = dataset.filter(f);
    if (cohort.selected_system_count() == 0) continue;
    out.push_back(compute_afr(cohort, std::string(model::to_string(paths))));
  }
  return out;
}

std::vector<StabilityRow> afr_stability_by_disk_model(const Dataset& dataset) {
  // Environment = (system class, shelf model). For each disk model, compute
  // the per-environment disk-failure AFR and subsystem AFR, then summarize
  // their spread.
  using EnvKey = std::pair<model::SystemClass, model::ShelfModelName>;
  std::map<model::DiskModelName, std::map<EnvKey, bool>> environments;
  for (const auto& sys : dataset.inventory().systems) {
    if (dataset.system_selected(sys.id)) {
      environments[sys.disk_model][EnvKey(sys.cls, sys.shelf_model)] = true;
    }
  }

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
      const Dataset cohort = dataset.filter(f);
      const auto b = compute_afr(cohort);
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
