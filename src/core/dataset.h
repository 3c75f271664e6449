// The analysis dataset: failure events joined with fleet inventory.
//
// This is the entry point of the `storanalysis` library (the paper's
// contribution). A Dataset owns a set of classified failure events plus the
// inventory needed to interpret them (which shelf/RAID group/system/model a
// disk belonged to, and for how long it was exposed). Analyses read it
// through core::Source (core/source.h), which is also where cohorts are
// selected: a Dataset is always the whole fleet it was built from.
//
// A Dataset is the list of its parts: contiguous global system ranges of
// the fleet, in global system order, each in part-local dense ids — the
// chunks simulate_and_analyze ran, or one part for a fleet read whole (text
// logs, one replicate). Each part's ids land among the fleet's through
// store::IdBases (store/ids.h), the same rule a shard directory's shards
// follow, so Source walks a Dataset the way it walks a store: part by part,
// ids rebased. No fleet-wide copy is ever stitched.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "log/classifier.h"
#include "log/snapshot.h"
#include "model/enums.h"
#include "model/ids.h"
#include "store/ids.h"

namespace storsubsim::core {

/// One analyzed failure (detection-time stamped, as in the paper).
using FailureEvent = log::ClassifiedFailure;

class Dataset {
 public:
  /// One part: a system range in part-local dense ids (entry i of each
  /// inventory vector has id i).
  struct Part {
    std::shared_ptr<const log::Inventory> inventory;
    /// Events in (time, disk, type) order, the classifier's.
    std::vector<FailureEvent> events;
    /// Where the part's ids land globally; ids.disks_initial leading disk
    /// records are initial disks, the rest replacements.
    store::IdBases ids;
  };

  /// A one-part dataset over a parsed inventory + classified events (the
  /// end-to-end log path). Events referencing unknown disks are dropped.
  /// With one part every id is already global; `disks_initial` only says
  /// which leading disk records are initial disks (default: all).
  Dataset(std::shared_ptr<const log::Inventory> inventory, std::vector<FailureEvent> events,
          std::size_t disks_initial = std::numeric_limits<std::size_t>::max());

  /// Joins datasets of consecutive system ranges, given in global system
  /// order, into one dataset of all their parts.
  explicit Dataset(std::vector<Dataset> ranges);

  std::span<const Part> parts() const { return parts_; }

 private:
  std::vector<Part> parts_;
};

}  // namespace storsubsim::core
