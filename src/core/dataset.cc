#include "core/dataset.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "core/source.h"
#include "model/time.h"

namespace storsubsim::core {

Dataset::Dataset(std::shared_ptr<const log::Inventory> inventory,
                 std::vector<FailureEvent> events)
    : inventory_(std::move(inventory)) {
  if (!inventory_) throw std::invalid_argument("Dataset: null inventory");
  system_mask_.assign(inventory_->systems.size(), 1);
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

Dataset Dataset::filter(const Filter& f) const {
  Dataset out;
  out.inventory_ = inventory_;
  out.system_mask_.assign(inventory_->systems.size(), 0);
  for (const auto& sys : inventory_->systems) {
    if (system_mask_[sys.id.value()] != 0 && f.selects(sys)) {
      out.system_mask_[sys.id.value()] = 1;
    }
  }
  out.events_.reserve(events_.size());
  for (const auto& e : events_) {
    if (out.system_mask_[e.system.value()] != 0) out.events_.push_back(e);
  }
  return out;
}

namespace {

/// Records whose owning system the mask selects.
template <class Records>
std::size_t count_selected(const Records& records, const std::vector<char>& mask) {
  return static_cast<std::size_t>(std::count_if(
      records.begin(), records.end(), [&](const auto& r) { return mask[r.system.value()] != 0; }));
}

}  // namespace

std::size_t Dataset::event_count(model::FailureType type) const {
  return static_cast<std::size_t>(std::count_if(
      events_.begin(), events_.end(), [&](const FailureEvent& e) { return e.type == type; }));
}

std::size_t Dataset::selected_system_count() const {
  return static_cast<std::size_t>(std::count(system_mask_.begin(), system_mask_.end(), 1));
}

std::size_t Dataset::selected_shelf_count() const {
  return count_selected(inventory_->shelves, system_mask_);
}

std::size_t Dataset::selected_raid_group_count() const {
  return count_selected(inventory_->raid_groups, system_mask_);
}

std::size_t Dataset::selected_disk_record_count() const {
  return count_selected(inventory_->disks, system_mask_);
}

double Dataset::disk_exposure_years() const { return Source(*this).disk_years().total; }

double Dataset::raid_group_exposure_years() const {
  double total = 0.0;
  Source(*this).for_each_scope(Scope::kRaidGroup, [&](const ScopeRow& g) {
    const double span = inventory_->horizon_seconds - g.deploy_time;
    if (span > 0.0) total += model::years(span);
  });
  return total;
}

const log::InventorySystem& Dataset::system_of(const FailureEvent& event) const {
  return inventory_->systems[inventory_->disks[event.disk.value()].system.value()];
}

}  // namespace storsubsim::core
