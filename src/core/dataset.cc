#include "core/dataset.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace storsubsim::core {

Dataset::Dataset(std::shared_ptr<const log::Inventory> inventory,
                 std::vector<FailureEvent> events)
    : inventory_(std::move(inventory)) {
  if (!inventory_) throw std::invalid_argument("Dataset: null inventory");
  events_.reserve(events.size());
  for (auto& e : events) {
    if (!e.disk.valid() || e.disk.value() >= inventory_->disks.size()) {
      continue;
    }
    // Trust the inventory's system mapping over the event's (log lines can
    // be replayed across head failovers).
    e.system = inventory_->disks[e.disk.value()].system;
    events_.push_back(e);
  }
  // The full key, so events tied in time keep one order however they came.
  const auto before = [](const FailureEvent& a, const FailureEvent& b) {
    return std::tie(a.time, a.disk, a.type) < std::tie(b.time, b.disk, b.type);
  };
  if (!std::is_sorted(events_.begin(), events_.end(), before)) {
    std::sort(events_.begin(), events_.end(), before);
  }
}

}  // namespace storsubsim::core
