// The materialized fleet: every system, shelf, disk and RAID group, plus
// disk install/replace records for exposure accounting.
//
// A Fleet is built deterministically from a FleetConfig (same config + seed
// => identical fleet). The simulator mutates it only through `replace_disk`.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/fleet_config.h"
#include "model/topology.h"

namespace storsubsim::stats {
class Rng;
}

namespace storsubsim::model {

/// Cumulative topology totals at every system boundary, produced by
/// Fleet::plan in bounded memory (one system materialized at a time).
/// Each prefix vector has total_systems() + 1 entries: entry g holds the
/// totals over global systems [0, g), so the last entry is the whole-fleet
/// total. Chunked builds use these to place a chunk's shelves, disks and
/// RAID groups at their global offsets without building preceding chunks.
struct FleetPlan {
  std::vector<std::uint64_t> shelves;      ///< cumulative shelf count
  std::vector<std::uint64_t> disks;        ///< cumulative *initial* disk count
  std::vector<std::uint64_t> raid_groups;  ///< cumulative RAID group count

  std::size_t system_count() const {
    return shelves.empty() ? 0 : shelves.size() - 1;
  }
};

class Fleet {
 public:
  /// Builds a fleet from `config` using the standard model registries.
  static Fleet build(const FleetConfig& config);

  static Fleet build(const FleetConfig& config, const DiskModelRegistry& disk_models,
                     const ShelfModelRegistry& shelf_models);

  /// Builds only the contiguous global system range [sys_begin, sys_end),
  /// with chunk-local dense ids starting at 0. Every sampled value matches
  /// the corresponding system of the monolithic build bit for bit: the
  /// per-system RNG is positioned by replaying the preceding forks (a fork
  /// consumes a fixed amount of parent entropy, independent of its key).
  static Fleet build_chunk(const FleetConfig& config, std::size_t sys_begin,
                           std::size_t sys_end);

  static Fleet build_chunk(const FleetConfig& config, const DiskModelRegistry& disk_models,
                           const ShelfModelRegistry& shelf_models, std::size_t sys_begin,
                           std::size_t sys_end);

  /// Sweeps every system through the shared per-system builder — resetting
  /// the scratch topology between systems, so peak memory stays at one
  /// system — and records the cumulative counts chunked builds need.
  static FleetPlan plan(const FleetConfig& config);

  static FleetPlan plan(const FleetConfig& config, const DiskModelRegistry& disk_models,
                        const ShelfModelRegistry& shelf_models);

  // --- accessors ----------------------------------------------------------

  const FleetConfig& config() const { return config_; }
  double horizon_seconds() const { return config_.horizon_seconds; }

  std::span<const System> systems() const { return systems_; }
  std::span<const Shelf> shelves() const { return shelves_; }
  std::span<const RaidGroup> raid_groups() const { return raid_groups_; }
  /// Every disk record ever installed (includes replaced disks).
  std::span<const DiskRecord> disks() const { return disks_; }

  const System& system(SystemId id) const { return systems_[id.value()]; }
  const Shelf& shelf(ShelfId id) const { return shelves_[id.value()]; }
  const RaidGroup& raid_group(RaidGroupId id) const { return raid_groups_[id.value()]; }
  const DiskRecord& disk(DiskId id) const { return disks_[id.value()]; }

  const DiskModelRegistry& disk_models() const { return *disk_models_; }
  const ShelfModelRegistry& shelf_models() const { return *shelf_models_; }

  /// Current occupant of a slot (invalid id if empty).
  DiskId disk_in(const SlotRef& ref) const;

  /// Occupant of a slot at time `t`, walking the replacement chain backwards
  /// from the current occupant. Invalid id if the slot was empty (repair
  /// gap) or not yet populated at `t`.
  DiskId occupant_at(const SlotRef& ref, double t) const;

  // --- mutation (simulator only) ------------------------------------------

  /// Retires `failed` at `remove_time` and installs a fresh disk of the same
  /// model into the same slot at `install_time`. Returns the new disk's id.
  DiskId replace_disk(DiskId failed, double remove_time, double install_time);

  // --- derived quantities ---------------------------------------------------

  /// Total disk exposure of the whole fleet in disk-years.
  // storsim-lint: allow(unused-export) reason=test oracle: Snapshot.ExposureMatchesFleet checks the inventory's exposure sums
  double total_disk_exposure_years() const;

  std::size_t initial_disk_count() const { return initial_disk_count_; }

 private:
  Fleet(const FleetConfig& config, const DiskModelRegistry& disk_models,
        const ShelfModelRegistry& shelf_models);

  /// Appends one fully-sampled system (shelves, disks, RAID groups) using
  /// the current vector sizes as ids. The single source of truth for
  /// per-system construction — build, build_chunk and plan all call it, so
  /// the sampled topology can never diverge between the three paths.
  void append_system(const CohortSpec& cohort, std::uint32_t cohort_idx,
                     const ShelfModelInfo& shelf_info, stats::Rng rng);

  /// Back-fills RAID-group membership onto the disk records and seals
  /// initial_disk_count_. Called once after the last append_system.
  void finish_build();

  FleetConfig config_;
  const DiskModelRegistry* disk_models_;
  const ShelfModelRegistry* shelf_models_;

  std::vector<System> systems_;
  std::vector<Shelf> shelves_;
  std::vector<RaidGroup> raid_groups_;
  std::vector<DiskRecord> disks_;
  std::size_t initial_disk_count_ = 0;
};

/// Pseudo serial number for log lines, stable per disk id (the paper's logs
/// identify disks as "S/N [3EL03PAV00007111LR8W]"). The character-array
/// form is the allocation-free flavor the log emitter's hot path uses
/// (fixed width, not NUL-terminated); `serial_for` wraps it in a string.
std::array<char, 12> serial_chars(DiskId id);
std::string serial_for(DiskId id);

}  // namespace storsubsim::model
