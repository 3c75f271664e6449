// core::Source — the one reader of analysis rows, over either data layout.
//
// A Source views a cohort held by a Dataset (simulate -> emit -> parse ->
// classify) or by a store::ShardStore — a shard directory, or a STORCOL1
// file opened as one shard (docs/STORE.md). It is the only module that knows
// both layouts: every analysis reads its rows through the walks below and so
// has one collection loop whatever the backend. The backends are pinned
// bit-identical by the Source equivalence suite (tests/core/source_test.cc).
//
// Rows carry global ids (a store walk rebases shard-local ids through the
// manifest's bases). The walks are inlined templates, so an analysis pays
// only for the row fields it reads:
//   - for_each_event: cohort failures. Dataset order is (time, disk, type);
//     a store goes shard by shard and class by class, each class in (time,
//     disk, type) order, so a shelf's or RAID group's events (one system,
//     one shard, one class) arrive in time order on either backend.
//   - for_each_disk: cohort disk records in ascending global id — for a
//     store, every shard's initial disks, then every shard's replacements.
//   - for_each_system / for_each_scope: cohort systems, shelves and RAID
//     groups in ascending global id.
//   - disk_years: the cohort's disk-years, summed in disk-id order (the
//     exposure table of a whole-fleet store was summed in that order too).
//
// Cohorts: Source is the only place a cohort exists. Source(base, filter)
// narrows any Source to the systems Filter::selects accepts among base's
// own, so narrowing twice is the conjunction of both filters. The cohort is
// a mask over the backend's global system ids, the same on either backend,
// and every walk tests it; a Source over a whole Dataset or store has no
// mask. On a store the predicate reads the kSys* topology columns, so
// Source(store, filter) answers bit for bit as Source(dataset, filter) over
// the Dataset the store was written from, no Dataset built.
//
// Precondition: a Source over a ShardStore has every shard open. The walks
// read shard(i) directly and have no error channel. Every in-tree entry
// point establishes this: the CLI calls open_all(), storsimd pins every
// shard (ShardLru::pin_all), and opening a single file validates it eagerly.
//
// Ownership: Source borrows. The referenced backend must outlive the
// Source; construction from temporary backends is deleted to make the
// obvious dangling pattern (wrapping a Dataset returned by value and keeping
// the Source) a compile error. A narrowed Source borrows base's backend, not
// base itself. See docs/API.md.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/dataset.h"
#include "store/shards.h"

namespace storsubsim::core {

/// Cohort selector. All set fields must match (conjunction); matching is by
/// the *system* owning each disk/event.
struct Filter {
  std::optional<model::SystemClass> system_class;
  std::optional<model::DiskModelName> disk_model;
  std::optional<char> disk_family;  ///< any capacity of the family
  std::optional<model::ShelfModelName> shelf_model;
  std::optional<model::PathConfig> paths;
  /// Excludes systems using the problematic disk family H (paper Figure 4(b)).
  bool exclude_family_h = false;

  /// The one cohort predicate, which Source(base, filter) applies.
  // storsim-lint: allow(unused-export) reason=test seam: the SourceEquivalence reference rows apply it without Source's mask
  bool selects(const log::InventorySystem& system) const;
};

/// The scope kinds failures are grouped by (paper Section 5).
enum class Scope { kShelf, kRaidGroup };

/// Scope id of a row outside any scope of the asked kind (a spare disk has
/// no RAID group).
inline constexpr std::uint32_t kNoScope = model::RaidGroupId::kInvalid;

/// One cohort failure, in global ids.
struct EventRow {
  double time = 0.0;
  model::FailureType type = model::FailureType::kDisk;
  std::uint32_t disk = 0;
  std::uint32_t system = 0;
  std::uint32_t shelf = 0;
  std::uint32_t raid_group = kNoScope;
  double deploy_time = 0.0;  ///< owning system's deployment
  model::DiskModelName disk_model;  ///< the failed disk's own model
  model::ShelfModelName shelf_model;  ///< owning system's shelf model
  model::SystemClass cls = model::SystemClass::kNearLine;
  model::PathConfig paths = model::PathConfig::kSinglePath;

  std::uint32_t scope_id(Scope scope) const noexcept {
    return scope == Scope::kShelf ? shelf : raid_group;
  }
};

/// One cohort disk record.
struct DiskRow {
  std::uint32_t id = 0;
  std::uint32_t system = 0;  ///< owning system
  double install_time = 0.0;
  double remove_time = 0.0;
};

/// One cohort shelf or RAID group.
struct ScopeRow {
  std::uint32_t id = 0;
  double deploy_time = 0.0;  ///< owning system's deployment
  model::RaidType raid_type = model::RaidType::kRaid4;  ///< RAID groups only
};

/// Disk-years of a cohort, in total and per system class (index_of(cls)),
/// and its system count per class.
struct DiskYears {
  double total = 0.0;
  std::array<double, store::kClassCount> by_class{};
  std::array<std::uint64_t, store::kClassCount> systems_by_class{};
};

/// Cohort sizes: systems, shelves, RAID groups and disk records (including
/// replacements).
struct CohortCount {
  std::size_t systems = 0;
  std::size_t shelves = 0;
  std::size_t raid_groups = 0;
  std::size_t disk_records = 0;
};

class Source {
 public:
  // Implicit by design: call sites read compute_afr(dataset) and
  // compute_afr(store), not compute_afr(Source(dataset)).
  Source(const Dataset& dataset) noexcept : dataset_(&dataset) {}          // NOLINT
  Source(const store::ShardStore& shards) noexcept : shards_(&shards) {}  // NOLINT
  /// The systems of `base` that `filter` selects. Source(dataset, filter)
  /// and Source(store, filter) read through the implicit conversions above.
  Source(const Source& base, const Filter& filter);
  Source(Dataset&&) = delete;
  Source(store::ShardStore&&) = delete;

  /// The dataset backend, or nullptr otherwise.
  const Dataset* dataset() const noexcept { return dataset_; }
  /// The store backend, or nullptr otherwise (whatever the cohort).
  const store::ShardStore* shards() const noexcept { return shards_; }
  /// True when the cohort is every system of the backend.
  bool whole() const noexcept { return mask_.empty(); }

  double horizon_seconds() const noexcept;
  /// Events and disk records in the backend, whatever the cohort: sizes to
  /// reserve, and every global disk id is below disk_records().
  std::size_t event_records() const noexcept;
  std::size_t disk_records() const noexcept;
  DiskYears disk_years() const;
  CohortCount count() const;

  template <class F>
  void for_each_event(F&& f) const;
  template <class F>
  void for_each_disk(F&& f) const;
  /// Yields a log::InventorySystem per cohort system.
  template <class F>
  void for_each_system(F&& f) const;
  template <class F>
  void for_each_scope(Scope scope, F&& f) const;

 private:
  /// Cohort membership of a global system id.
  bool selected(std::uint64_t system) const noexcept {
    return mask_.empty() || mask_[system] != 0;
  }
  /// One shard's system columns, read as inventory records.
  struct SystemColumns {
    explicit SystemColumns(const store::EventStore& shard);
    log::InventorySystem row(std::uint32_t local, std::uint32_t global) const;

    std::span<const std::uint8_t> cls, paths, disk_family, shelf_model;
    std::span<const std::uint32_t> disk_cap, cohort;
    std::span<const double> deploy;
  };

  const Dataset* dataset_ = nullptr;
  const store::ShardStore* shards_ = nullptr;
  std::vector<std::uint8_t> mask_;  ///< cohort by global system id; empty = all
};

// --- row walks -------------------------------------------------------------

template <class F>
void Source::for_each_event(F&& f) const {
  if (dataset_ != nullptr) {
    const log::Inventory& inv = dataset_->inventory();
    for (const FailureEvent& e : dataset_->events()) {
      if (!selected(e.system.value())) continue;
      const log::InventoryDisk& disk = inv.disks[e.disk.value()];
      const log::InventorySystem& sys = inv.systems[e.system.value()];
      f(EventRow{e.time, e.type, e.disk.value(), e.system.value(), disk.shelf.value(),
                 disk.raid_group.value(), sys.deploy_time, disk.model, sys.shelf_model,
                 sys.cls, sys.paths});
    }
    return;
  }
  for (std::size_t s = 0; s < shards_->shard_count(); ++s) {
    const store::EventStore& shard = shards_->shard(s);
    const SystemColumns sys(shard);
    const auto family = shard.topology(store::ColumnId::kDiskFamily)->as_u8();
    const auto cap = shard.topology(store::ColumnId::kDiskCap)->as_u32();
    const std::uint64_t base = shards_->info(s).system_base;
    for (const auto cls : model::kAllSystemClasses) {
      const store::EventView& view = shard.events(cls);
      for (std::size_t i = 0; i < view.size(); ++i) {
        const std::uint32_t at = view.system[i];
        if (!selected(base + at)) continue;
        const std::uint32_t disk = view.disk[i];
        f(EventRow{view.time[i], static_cast<model::FailureType>(view.type[i]),
                   static_cast<std::uint32_t>(shards_->global_disk(s, disk)),
                   static_cast<std::uint32_t>(base + at),
                   static_cast<std::uint32_t>(shards_->global_shelf(s, view.shelf[i])),
                   static_cast<std::uint32_t>(shards_->global_raid_group(s, view.raid_group[i])),
                   sys.deploy[at], {static_cast<char>(family[disk]), static_cast<int>(cap[disk])},
                   {static_cast<char>(sys.shelf_model[at])}, cls,
                   static_cast<model::PathConfig>(sys.paths[at])});
      }
    }
  }
}

template <class F>
void Source::for_each_disk(F&& f) const {
  if (dataset_ != nullptr) {
    const log::Inventory& inv = dataset_->inventory();
    for (const log::InventoryDisk& d : inv.disks) {
      if (!selected(d.system.value())) continue;
      f(DiskRow{d.id.value(), d.system.value(), d.install_time, d.remove_time});
    }
    return;
  }
  for (const bool replacements : {false, true}) {
    for (std::size_t s = 0; s < shards_->shard_count(); ++s) {
      const store::EventStore& shard = shards_->shard(s);
      const auto system = shard.topology(store::ColumnId::kDiskSystem)->as_u32();
      const auto install = shard.topology(store::ColumnId::kDiskInstall)->as_f64();
      const auto remove = shard.topology(store::ColumnId::kDiskRemove)->as_f64();
      const std::uint64_t base = shards_->info(s).system_base;
      const auto initial = static_cast<std::uint32_t>(shards_->info(s).disks_initial);
      const auto end = replacements ? static_cast<std::uint32_t>(install.size()) : initial;
      for (std::uint32_t i = replacements ? initial : 0; i < end; ++i) {
        if (!selected(base + system[i])) continue;
        f(DiskRow{static_cast<std::uint32_t>(shards_->global_disk(s, i)),
                  static_cast<std::uint32_t>(base + system[i]), install[i], remove[i]});
      }
    }
  }
}

template <class F>
void Source::for_each_system(F&& f) const {
  if (dataset_ != nullptr) {
    for (const log::InventorySystem& sys : dataset_->inventory().systems) {
      if (selected(sys.id.value())) f(sys);
    }
    return;
  }
  for (std::size_t s = 0; s < shards_->shard_count(); ++s) {
    const SystemColumns columns(shards_->shard(s));
    const auto base = static_cast<std::uint32_t>(shards_->info(s).system_base);
    for (std::uint32_t i = 0; i < columns.cls.size(); ++i) {
      if (selected(base + i)) f(columns.row(i, base + i));
    }
  }
}

template <class F>
void Source::for_each_scope(Scope scope, F&& f) const {
  const bool shelves = scope == Scope::kShelf;
  if (dataset_ != nullptr) {
    const log::Inventory& inv = dataset_->inventory();
    const auto yield = [&](std::uint32_t id, model::SystemId system, model::RaidType type) {
      if (!selected(system.value())) return;
      f(ScopeRow{id, inv.systems[system.value()].deploy_time, type});
    };
    if (shelves) {
      for (const auto& sh : inv.shelves) yield(sh.id.value(), sh.system, model::RaidType{});
    } else {
      for (const auto& g : inv.raid_groups) yield(g.id.value(), g.system, g.type);
    }
    return;
  }
  for (std::size_t s = 0; s < shards_->shard_count(); ++s) {
    const store::EventStore& shard = shards_->shard(s);
    const store::ShardInfo& info = shards_->info(s);
    const auto deploy = shard.topology(store::ColumnId::kSysDeploy)->as_f64();
    const auto owner =
        shard.topology(shelves ? store::ColumnId::kShelfSystem : store::ColumnId::kRgSystem)
            ->as_u32();
    const auto type = shard.topology(store::ColumnId::kRgType)->as_u8();
    const std::uint64_t id = shelves ? info.shelf_base : info.raid_group_base;
    for (std::size_t i = 0; i < owner.size(); ++i) {
      if (!selected(info.system_base + owner[i])) continue;
      f(ScopeRow{static_cast<std::uint32_t>(id + i), deploy[owner[i]],
                 shelves ? model::RaidType{} : static_cast<model::RaidType>(type[i])});
    }
  }
}

}  // namespace storsubsim::core
