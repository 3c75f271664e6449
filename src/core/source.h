// core::Source — the one reader of analysis rows, over either data layout.
//
// A Source views a cohort held by a Dataset (simulate -> emit -> parse ->
// classify) or by a store::ShardStore — a shard directory, or a STORCOL1
// file opened as one shard (docs/STORE.md). It is the only module that knows
// both layouts: every analysis reads its rows through the walks below and so
// has one collection loop whatever the backend. The backends are pinned
// bit-identical by the Source equivalence suite (tests/core/source_test.cc).
//
// Both backends are a list of pieces in global system order — a Dataset's
// parts, a store's shards — each in piece-local ids with the store::IdBases
// that globalize them. Every walk is written once over for_each_piece: a
// piece yields its rows in local ids (PartRows or ShardRows, the only code
// that reads either layout), and the walk rebases them. The walks are
// inlined templates, so an analysis pays only for the row fields it reads:
//   - for_each_event: cohort failures, piece by piece. A Dataset part yields
//     (time, disk, type) order; a shard goes class by class, each class in
//     (time, disk, type) order. So a shelf's or RAID group's events (one
//     system, one piece, one class) arrive in time order on either backend.
//   - for_each_disk: cohort disk records in ascending global id — every
//     piece's initial disks, then every piece's replacements.
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
// the Dataset the store was written from, no Dataset built; how either
// backend is cut into pieces never shows in an answer.
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

  // The two layouts, in local ids.

  /// One Dataset part's rows.
  struct PartRows {
    const Dataset::Part& part;

    std::size_t disk_count() const noexcept { return part.inventory->disks.size(); }

    /// g(row) for each event whose local system passes keep(system).
    template <class K, class G>
    void for_each_event(K&& keep, G&& g) const {
      const log::Inventory& inv = *part.inventory;
      for (const FailureEvent& e : part.events) {
        if (!keep(e.system.value())) continue;
        const log::InventoryDisk& disk = inv.disks[e.disk.value()];
        const log::InventorySystem& sys = inv.systems[e.system.value()];
        g(EventRow{e.time, e.type, e.disk.value(), e.system.value(), disk.shelf.value(),
                   disk.raid_group.value(), sys.deploy_time, disk.model, sys.shelf_model,
                   sys.cls, sys.paths});
      }
    }
    template <class G>
    void for_each_disk(std::size_t first, std::size_t last, G&& g) const {
      const auto& disks = part.inventory->disks;
      for (std::size_t i = first; i < last; ++i) {
        g(DiskRow{disks[i].id.value(), disks[i].system.value(), disks[i].install_time,
                  disks[i].remove_time});
      }
    }
    template <class G>
    void for_each_system(G&& g) const {
      for (const log::InventorySystem& sys : part.inventory->systems) g(sys);
    }
    /// g(row, owning system).
    template <class G>
    void for_each_scope(Scope scope, G&& g) const {
      const log::Inventory& inv = *part.inventory;
      const auto deploy = [&](model::SystemId system) {
        return inv.systems[system.value()].deploy_time;
      };
      if (scope == Scope::kShelf) {
        for (const auto& sh : inv.shelves) {
          g(ScopeRow{sh.id.value(), deploy(sh.system), model::RaidType{}}, sh.system.value());
        }
      } else {
        for (const auto& rg : inv.raid_groups) {
          g(ScopeRow{rg.id.value(), deploy(rg.system), rg.type}, rg.system.value());
        }
      }
    }
  };

  /// One store shard's rows, read from its columns.
  struct ShardRows {
    const store::EventStore& shard;

    std::span<const std::uint8_t> u8(store::ColumnId id) const {
      return shard.topology(id)->as_u8();
    }
    std::span<const std::uint32_t> u32(store::ColumnId id) const {
      return shard.topology(id)->as_u32();
    }
    std::span<const double> f64(store::ColumnId id) const {
      return shard.topology(id)->as_f64();
    }
    std::size_t disk_count() const { return u32(store::ColumnId::kDiskSystem).size(); }

    template <class K, class G>
    void for_each_event(K&& keep, G&& g) const {
      const auto sys_deploy = f64(store::ColumnId::kSysDeploy);
      const auto sys_shelf_model = u8(store::ColumnId::kSysShelfModel);
      const auto sys_paths = u8(store::ColumnId::kSysPaths);
      const auto disk_family = u8(store::ColumnId::kDiskFamily);
      const auto disk_cap = u32(store::ColumnId::kDiskCap);
      for (const auto cls : model::kAllSystemClasses) {
        const store::EventView& view = shard.events(cls);
        for (std::size_t i = 0; i < view.size(); ++i) {
          const std::uint32_t at = view.system[i];
          if (!keep(at)) continue;
          const std::uint32_t disk = view.disk[i];
          g(EventRow{view.time[i], static_cast<model::FailureType>(view.type[i]), disk, at,
                     view.shelf[i], view.raid_group[i], sys_deploy[at],
                     {static_cast<char>(disk_family[disk]), static_cast<int>(disk_cap[disk])},
                     {static_cast<char>(sys_shelf_model[at])}, cls,
                     static_cast<model::PathConfig>(sys_paths[at])});
        }
      }
    }
    template <class G>
    void for_each_disk(std::size_t first, std::size_t last, G&& g) const {
      const auto system = u32(store::ColumnId::kDiskSystem);
      const auto install = f64(store::ColumnId::kDiskInstall);
      const auto remove = f64(store::ColumnId::kDiskRemove);
      for (std::size_t i = first; i < last; ++i) {
        g(DiskRow{static_cast<std::uint32_t>(i), system[i], install[i], remove[i]});
      }
    }
    /// Yields each local system as an inventory record.
    template <class G>
    void for_each_system(G&& g) const {
      const auto cls = u8(store::ColumnId::kSysClass);
      const auto paths = u8(store::ColumnId::kSysPaths);
      const auto family = u8(store::ColumnId::kSysDiskFamily);
      const auto cap = u32(store::ColumnId::kSysDiskCap);
      const auto shelf_model = u8(store::ColumnId::kSysShelfModel);
      const auto deploy = f64(store::ColumnId::kSysDeploy);
      const auto cohort = u32(store::ColumnId::kSysCohort);
      for (std::uint32_t i = 0; i < cls.size(); ++i) {
        g(log::InventorySystem{model::SystemId(i), static_cast<model::SystemClass>(cls[i]),
                               static_cast<model::PathConfig>(paths[i]),
                               {static_cast<char>(family[i]), static_cast<int>(cap[i])},
                               {static_cast<char>(shelf_model[i])}, deploy[i], cohort[i]});
      }
    }
    template <class G>
    void for_each_scope(Scope scope, G&& g) const {
      const bool shelves = scope == Scope::kShelf;
      const auto owner = u32(shelves ? store::ColumnId::kShelfSystem : store::ColumnId::kRgSystem);
      const auto deploy = f64(store::ColumnId::kSysDeploy);
      const auto rg_type = u8(store::ColumnId::kRgType);
      for (std::size_t i = 0; i < owner.size(); ++i) {
        g(ScopeRow{static_cast<std::uint32_t>(i), deploy[owner[i]],
                   shelves ? model::RaidType{} : static_cast<model::RaidType>(rg_type[i])},
          owner[i]);
      }
    }
  };

  /// Calls f(rows, ids) for every piece of the backend in global system
  /// order: its rows in local ids, and the bases that globalize them.
  template <class F>
  void for_each_piece(F&& f) const {
    if (dataset_ != nullptr) {
      for (const Dataset::Part& part : dataset_->parts()) f(PartRows{part}, part.ids);
      return;
    }
    for (std::size_t s = 0; s < shards_->shard_count(); ++s) {
      f(ShardRows{shards_->shard(s)}, shards_->info(s).ids);
    }
  }

  const Dataset* dataset_ = nullptr;
  const store::ShardStore* shards_ = nullptr;
  std::vector<std::uint8_t> mask_;  ///< cohort by global system id; empty = all
};

// --- row walks ---------------------------------------------------------------

template <class F>
void Source::for_each_event(F&& f) const {
  for_each_piece([&](const auto& rows, const store::IdBases& ids) {
    const auto keep = [&](std::uint32_t system) { return selected(ids.system + system); };
    rows.for_each_event(keep, [&](EventRow e) {
      e.system = static_cast<std::uint32_t>(ids.system + e.system);
      e.disk = static_cast<std::uint32_t>(ids.global_disk(e.disk));
      e.shelf = static_cast<std::uint32_t>(ids.global_shelf(e.shelf));
      e.raid_group = static_cast<std::uint32_t>(ids.global_raid_group(e.raid_group));
      f(e);
    });
  });
}

template <class F>
void Source::for_each_disk(F&& f) const {
  for (const bool replacements : {false, true}) {
    for_each_piece([&](const auto& rows, const store::IdBases& ids) {
      const std::size_t initial = ids.disks_initial;
      rows.for_each_disk(replacements ? initial : 0,
                         replacements ? rows.disk_count() : initial, [&](DiskRow d) {
                           d.system = static_cast<std::uint32_t>(ids.system + d.system);
                           if (!selected(d.system)) return;
                           d.id = static_cast<std::uint32_t>(ids.global_disk(d.id));
                           f(d);
                         });
    });
  }
}

template <class F>
void Source::for_each_system(F&& f) const {
  for_each_piece([&](const auto& rows, const store::IdBases& ids) {
    rows.for_each_system([&](log::InventorySystem sys) {
      sys.id = model::SystemId(static_cast<std::uint32_t>(ids.system + sys.id.value()));
      if (selected(sys.id.value())) f(sys);
    });
  });
}

template <class F>
void Source::for_each_scope(Scope scope, F&& f) const {
  for_each_piece([&](const auto& rows, const store::IdBases& ids) {
    const std::uint64_t base = scope == Scope::kShelf ? ids.shelf : ids.raid_group;
    rows.for_each_scope(scope, [&](ScopeRow row, std::uint32_t system) {
      if (!selected(ids.system + system)) return;
      row.id = static_cast<std::uint32_t>(base + row.id);
      f(row);
    });
  });
}

}  // namespace storsubsim::core
