// The analysis dataset: failure events joined with fleet inventory.
//
// This is the entry point of the `storanalysis` library (the paper's
// contribution). A Dataset owns a set of classified failure events plus the
// inventory needed to interpret them (which shelf/RAID group/system/model a
// disk belonged to, and for how long it was exposed). Analyses read it
// through core::Source (core/source.h), which is also where cohorts are
// selected: a Dataset is always the whole fleet it was built from.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "log/classifier.h"
#include "log/snapshot.h"
#include "model/enums.h"
#include "model/ids.h"

namespace storsubsim::core {

/// One analyzed failure (detection-time stamped, as in the paper).
using FailureEvent = log::ClassifiedFailure;

class Dataset {
 public:
  /// Builds from a parsed inventory + classified events (the end-to-end log
  /// path). Events referencing unknown disks are dropped.
  Dataset(std::shared_ptr<const log::Inventory> inventory, std::vector<FailureEvent> events);

  // --- events ---------------------------------------------------------------
  /// Events in (time, disk, type) order, the classifier's.
  std::span<const FailureEvent> events() const { return events_; }

  // --- inventory ------------------------------------------------------------
  const log::Inventory& inventory() const { return *inventory_; }

 private:
  std::shared_ptr<const log::Inventory> inventory_;
  std::vector<FailureEvent> events_;
};

}  // namespace storsubsim::core
