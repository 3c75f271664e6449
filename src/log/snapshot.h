// Configuration snapshots: the inventory side of the support logs.
//
// The studied systems copy their configuration into the logs weekly (paper
// §2.5); the analysis joins failure events with this inventory to know which
// shelf/RAID group/model a failed disk belonged to, and to account exposure
// time. We serialize a complete inventory (systems, shelves, disks with
// install/remove times, RAID groups) as a text section and parse it back
// into a plain `Inventory` that the analysis layer consumes — keeping the
// analysis decoupled from the simulator's live Fleet object.
//
// Like the failure-log codec, the snapshot codec works on buffers only:
// `write_snapshot(LineWriter&, ...)` appends the section to a reusable
// buffer and `parse_snapshot(std::string_view)` walks text in place — a
// LineWriter's or a mapped file's.
//
// The records form one sequence SYSTEM ⧺ SHELF ⧺ GROUP ⧺ DISK, each kind's
// ids dense from zero. `parse_snapshot` checks that, the header and END, and
// referential integrity.
#pragma once

#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "log/line_writer.h"
#include "model/disk_model.h"
#include "model/enums.h"
#include "model/ids.h"
#include "model/shelf_model.h"

namespace storsubsim::model {
class Fleet;
}

namespace storsubsim::log {

struct InventorySystem {
  model::SystemId id;
  model::SystemClass cls = model::SystemClass::kNearLine;
  model::PathConfig paths = model::PathConfig::kSinglePath;
  model::DiskModelName disk_model;
  model::ShelfModelName shelf_model;
  double deploy_time = 0.0;
  std::uint32_t cohort = 0;
};

struct InventoryShelf {
  model::ShelfId id;
  model::SystemId system;
  model::ShelfModelName model;
};

struct InventoryDisk {
  model::DiskId id;
  model::DiskModelName model;
  model::SystemId system;
  model::ShelfId shelf;
  model::RaidGroupId raid_group;
  std::uint32_t slot = 0;
  double install_time = 0.0;
  double remove_time = std::numeric_limits<double>::infinity();
};

struct InventoryRaidGroup {
  model::RaidGroupId id;
  model::SystemId system;
  model::RaidType type = model::RaidType::kRaid4;
  std::uint32_t member_count = 0;
  std::uint32_t shelf_span = 0;
};

/// The complete joined inventory. Entries are indexed by their dense ids
/// (entry i has id i), which the parser verifies.
struct Inventory {
  std::vector<InventorySystem> systems;
  std::vector<InventoryShelf> shelves;
  std::vector<InventoryDisk> disks;
  std::vector<InventoryRaidGroup> raid_groups;
  double horizon_seconds = 0.0;

  /// Exposure of a disk record in years, clipped to [0, horizon].
  double disk_exposure_years(const InventoryDisk& disk) const;
};

/// Per-kind record counts, in record order.
struct SnapshotCounts {
  std::uint32_t systems = 0;
  std::uint32_t shelves = 0;
  std::uint32_t raid_groups = 0;
  std::uint32_t disks = 0;
};

/// Appends the fleet's full inventory (including retired disk records),
/// framed by the SNAPSHOT header and END.
void write_snapshot(LineWriter& out, const model::Fleet& fleet);

/// Result of parsing a snapshot; `error` is empty on success.
struct SnapshotParseResult {
  Inventory inventory;
  std::string error;
  std::size_t lines = 0;

  bool ok() const { return error.empty(); }
};

/// Parses a snapshot section from an in-memory buffer — a mapped file or a
/// pipeline LineWriter — with no per-line copies. The result owns
/// everything; `text` may die after. `expected` only pre-sizes the
/// inventory's vectors (a writer that knows its record counts saves their
/// regrowth).
SnapshotParseResult parse_snapshot(std::string_view text, const SnapshotCounts& expected = {});

/// Builds the same Inventory directly from a live fleet (bypassing text) —
/// used by tests to verify write/parse round-trips and by callers that do
/// not need the end-to-end path.
Inventory inventory_from_fleet(const model::Fleet& fleet);

}  // namespace storsubsim::log
