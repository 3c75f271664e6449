// Turns parsed log views (log/parser.h) into storage subsystem failure
// events.
//
// Following the paper's methodology (§2.5), only RAID-layer events are
// counted as storage subsystem failures — lower-layer precursors are the
// *explanation* of a failure, not additional failures. A de-duplication
// window collapses repeated RAID-layer reports of the same (disk, type)
// that land within a short interval (log replay and multi-path reporting can
// duplicate the terminal line).
#pragma once

#include <span>
#include <vector>

#include "log/parser.h"
#include "model/enums.h"
#include "model/ids.h"

namespace storsubsim::log {

/// A classified storage subsystem failure, the unit of all analysis.
struct ClassifiedFailure {
  double time = 0.0;  ///< detection time (RAID-layer event timestamp)
  model::DiskId disk;
  model::SystemId system;
  model::FailureType type = model::FailureType::kDisk;

  friend bool operator==(const ClassifiedFailure&, const ClassifiedFailure&) = default;
};

struct ClassifierOptions {
  /// RAID-layer duplicates of the same (disk, type) within this window are
  /// collapsed into the first occurrence.
  double dedup_window_seconds = 600.0;
};

struct ClassifierStats {
  std::size_t raid_records = 0;
  std::size_t duplicates_dropped = 0;
  std::size_t missing_disk_dropped = 0;  ///< RAID record without a disk id
};

/// Extracts and de-duplicates failures. Records may arrive in any order;
/// output is sorted by time. Terminal detection switches on the interned
/// event-code id, so no string is touched.
std::vector<ClassifiedFailure> classify(std::span<const LogView> records,
                                        const ClassifierOptions& options = {},
                                        ClassifierStats* stats = nullptr);

}  // namespace storsubsim::log
