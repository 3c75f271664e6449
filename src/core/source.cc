#include "core/source.h"

#include <algorithm>

#include "model/time.h"

namespace storsubsim::core {

bool Filter::selects(const log::InventorySystem& system) const {
  if (system_class && system.cls != *system_class) return false;
  if (disk_model && !(system.disk_model == *disk_model)) return false;
  if (disk_family && system.disk_model.family != *disk_family) return false;
  if (shelf_model && !(system.shelf_model == *shelf_model)) return false;
  if (paths && system.paths != *paths) return false;
  if (exclude_family_h && system.disk_model.family == 'H') return false;
  return true;
}

Source::SystemColumns::SystemColumns(const store::EventStore& shard)
    : cls(shard.topology(store::ColumnId::kSysClass)->as_u8()),
      paths(shard.topology(store::ColumnId::kSysPaths)->as_u8()),
      disk_family(shard.topology(store::ColumnId::kSysDiskFamily)->as_u8()),
      shelf_model(shard.topology(store::ColumnId::kSysShelfModel)->as_u8()),
      disk_cap(shard.topology(store::ColumnId::kSysDiskCap)->as_u32()),
      cohort(shard.topology(store::ColumnId::kSysCohort)->as_u32()),
      deploy(shard.topology(store::ColumnId::kSysDeploy)->as_f64()) {}

log::InventorySystem Source::SystemColumns::row(std::uint32_t local,
                                                std::uint32_t global) const {
  log::InventorySystem sys;
  sys.id = model::SystemId(global);
  sys.cls = static_cast<model::SystemClass>(cls[local]);
  sys.paths = static_cast<model::PathConfig>(paths[local]);
  sys.disk_model = {static_cast<char>(disk_family[local]), static_cast<int>(disk_cap[local])};
  sys.shelf_model = {static_cast<char>(shelf_model[local])};
  sys.deploy_time = deploy[local];
  sys.cohort = cohort[local];
  return sys;
}

Source::Source(const Source& base, const Filter& filter)
    : dataset_(base.dataset_), shards_(base.shards_) {
  mask_.assign(dataset_ != nullptr ? dataset_->inventory().systems.size()
                                   : static_cast<std::size_t>(shards_->manifest().systems),
               0);
  std::size_t selected = 0;
  base.for_each_system([&](const log::InventorySystem& sys) {
    if (!filter.selects(sys)) return;
    mask_[sys.id.value()] = 1;
    ++selected;
  });
  // Every system: no mask, so a whole store reads its exposure table.
  if (selected == mask_.size()) mask_.clear();
}

double Source::horizon_seconds() const noexcept {
  return dataset_ != nullptr ? dataset_->inventory().horizon_seconds
                             : shards_->manifest().horizon_seconds;
}

std::size_t Source::event_records() const noexcept {
  return dataset_ != nullptr ? dataset_->events().size()
                             : static_cast<std::size_t>(shards_->manifest().events);
}

std::size_t Source::disk_records() const noexcept {
  return dataset_ != nullptr ? dataset_->inventory().disks.size()
                             : static_cast<std::size_t>(shards_->manifest().disks_total);
}

CohortCount Source::count() const {
  CohortCount n;
  for_each_system([&](const log::InventorySystem&) { ++n.systems; });
  for_each_scope(Scope::kShelf, [&](const ScopeRow&) { ++n.shelves; });
  for_each_scope(Scope::kRaidGroup, [&](const ScopeRow&) { ++n.raid_groups; });
  for_each_disk([&](const DiskRow&) { ++n.disk_records; });
  return n;
}

DiskYears Source::disk_years() const {
  DiskYears out;
  if (shards_ != nullptr && mask_.empty()) {
    const store::ExposureTable& table = shards_->exposure();
    out.total = table.total_disk_years;
    out.by_class = table.class_disk_years;
    out.systems_by_class = table.class_system_count;
    return out;
  }
  // One sweep in disk-id order with one accumulator per cohort, as the
  // store writer fills its exposure table: the same addends in the same
  // order as each cohort's own sweep.
  std::vector<std::size_t> class_of;  // by system id
  for_each_system([&](const log::InventorySystem& sys) {
    class_of.resize(std::max<std::size_t>(class_of.size(), sys.id.value() + 1));
    class_of[sys.id.value()] = model::index_of(sys.cls);
    ++out.systems_by_class[class_of[sys.id.value()]];
  });
  const double horizon = horizon_seconds();
  for_each_disk([&](const DiskRow& d) {
    const double start = std::max(0.0, d.install_time);
    const double end = std::min(horizon, d.remove_time);
    const double years = end > start ? model::years(end - start) : 0.0;
    out.total += years;
    out.by_class[class_of[d.system]] += years;
  });
  return out;
}

}  // namespace storsubsim::core
