// The analysis dataset: failure events joined with fleet inventory.
//
// This is the entry point of the `storanalysis` library (the paper's
// contribution). A Dataset owns a set of classified failure events plus the
// inventory needed to interpret them (which shelf/RAID group/system/model a
// disk belonged to, and for how long it was exposed). All analyses — AFR
// breakdowns, burstiness CDFs, correlation tests — run against a Dataset,
// and cohort studies are expressed as Dataset filters.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "log/classifier.h"
#include "log/snapshot.h"
#include "model/enums.h"
#include "model/ids.h"

namespace storsubsim::core {

/// One analyzed failure (detection-time stamped, as in the paper).
using FailureEvent = log::ClassifiedFailure;

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
};

class Dataset {
 public:
  /// Builds from a parsed inventory + classified events (the end-to-end log
  /// path). Events referencing unknown disks are dropped.
  Dataset(std::shared_ptr<const log::Inventory> inventory, std::vector<FailureEvent> events);

  /// Applies a cohort filter; shares the inventory with the parent.
  Dataset filter(const Filter& f) const;

  // --- events ---------------------------------------------------------------
  /// Events sorted by detection time.
  std::span<const FailureEvent> events() const { return events_; }
  std::size_t event_count(model::FailureType type) const;

  // --- inventory ------------------------------------------------------------
  const log::Inventory& inventory() const { return *inventory_; }
  /// True if the owning system of this disk is in the cohort.
  bool system_selected(model::SystemId id) const { return system_mask_[id.value()] != 0; }

  std::size_t selected_system_count() const;
  std::size_t selected_shelf_count() const;
  std::size_t selected_raid_group_count() const;
  /// Disk records (including replacements) belonging to selected systems.
  std::size_t selected_disk_record_count() const;

  /// Total disk exposure of the cohort, in disk-years.
  double disk_exposure_years() const;
  /// Observed RAID-group time in group-years (groups accrue time from their
  /// system's deployment to the horizon).
  double raid_group_exposure_years() const;

  /// Per-event enrichment helpers.
  const log::InventoryDisk& disk_of(const FailureEvent& event) const;
  const log::InventorySystem& system_of(const FailureEvent& event) const;

 private:
  Dataset() = default;

  std::shared_ptr<const log::Inventory> inventory_;
  std::vector<FailureEvent> events_;
  std::vector<char> system_mask_;
};

}  // namespace storsubsim::core
