#include "core/dataset.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace storsubsim::core {

Dataset::Dataset(std::shared_ptr<const log::Inventory> inventory,
                 std::vector<FailureEvent> events, std::size_t disks_initial) {
  if (!inventory) throw std::invalid_argument("Dataset: null inventory");
  Part part;
  part.events.reserve(events.size());
  for (auto& e : events) {
    if (!e.disk.valid() || e.disk.value() >= inventory->disks.size()) continue;
    // Trust the inventory's system mapping over the event's (log lines can
    // be replayed across head failovers).
    e.system = inventory->disks[e.disk.value()].system;
    part.events.push_back(e);
  }
  // The full key, so events tied in time keep one order however they came.
  const auto before = [](const FailureEvent& a, const FailureEvent& b) {
    return std::tie(a.time, a.disk, a.type) < std::tie(b.time, b.disk, b.type);
  };
  if (!std::is_sorted(part.events.begin(), part.events.end(), before)) {
    std::sort(part.events.begin(), part.events.end(), before);
  }
  // One part: every base is zero, and replacements follow its initial disks.
  part.ids.disks_initial = std::min(disks_initial, inventory->disks.size());
  part.ids.replacement = part.ids.disks_initial;
  part.inventory = std::move(inventory);
  parts_.push_back(std::move(part));
}

Dataset::Dataset(std::vector<Dataset> ranges) {
  std::vector<store::PieceCounts> counts;
  for (Dataset& range : ranges) {
    for (Part& p : range.parts_) {
      const log::Inventory& inv = *p.inventory;
      counts.push_back(store::PieceCounts{inv.systems.size(), inv.shelves.size(),
                                          inv.raid_groups.size(), p.ids.disks_initial,
                                          inv.disks.size()});
      parts_.push_back(std::move(p));
    }
  }
  if (parts_.empty()) throw std::invalid_argument("Dataset: no parts");
  const std::vector<store::IdBases> bases = store::id_bases(counts);
  for (std::size_t i = 0; i < parts_.size(); ++i) parts_[i].ids = bases[i];
}

}  // namespace storsubsim::core
