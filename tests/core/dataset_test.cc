// Dataset construction, filtering semantics, exposure accounting, joins.
#include "core/dataset.h"

#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "model/fleet.h"
#include "sim/scenario.h"

namespace core = storsubsim::core;
namespace log_ns = storsubsim::log;
namespace model = storsubsim::model;
namespace sim = storsubsim::sim;

namespace {

/// A tiny hand-built inventory: 2 systems (low-end/A/A-2, high-end/B/H-1),
/// one shelf and 2 disks each; the second disk of system 0 was replaced.
std::shared_ptr<log_ns::Inventory> tiny_inventory() {
  auto inv = std::make_shared<log_ns::Inventory>();
  inv->horizon_seconds = model::from_years(1.0);

  log_ns::InventorySystem s0;
  s0.id = model::SystemId(0);
  s0.cls = model::SystemClass::kLowEnd;
  s0.paths = model::PathConfig::kSinglePath;
  s0.disk_model = {'A', 2};
  s0.shelf_model = {'A'};
  s0.deploy_time = 0.0;
  log_ns::InventorySystem s1 = s0;
  s1.id = model::SystemId(1);
  s1.cls = model::SystemClass::kHighEnd;
  s1.paths = model::PathConfig::kDualPath;
  s1.disk_model = {'H', 1};
  s1.shelf_model = {'B'};
  inv->systems = {s0, s1};

  inv->shelves = {{model::ShelfId(0), model::SystemId(0), {'A'}},
                  {model::ShelfId(1), model::SystemId(1), {'B'}}};
  inv->raid_groups = {{model::RaidGroupId(0), model::SystemId(0), model::RaidType::kRaid4, 2, 1},
                      {model::RaidGroupId(1), model::SystemId(1), model::RaidType::kRaid6, 2, 1}};

  auto disk = [&](std::uint32_t id, std::uint32_t sys, std::uint32_t shelf, std::uint32_t grp,
                  std::uint32_t slot, double install, double remove) {
    log_ns::InventoryDisk d;
    d.id = model::DiskId(id);
    d.model = inv->systems[sys].disk_model;
    d.system = model::SystemId(sys);
    d.shelf = model::ShelfId(shelf);
    d.raid_group = model::RaidGroupId(grp);
    d.slot = slot;
    d.install_time = install;
    d.remove_time = remove;
    return d;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double half = 0.5 * inv->horizon_seconds;
  inv->disks = {disk(0, 0, 0, 0, 0, 0.0, inf), disk(1, 0, 0, 0, 1, 0.0, half),
                disk(2, 1, 1, 1, 0, 0.0, inf), disk(3, 1, 1, 1, 1, 0.0, inf),
                disk(4, 0, 0, 0, 1, half, inf)};  // replacement for disk 1
  return inv;
}

core::FailureEvent event(double t, std::uint32_t disk, model::FailureType type) {
  return core::FailureEvent{t, model::DiskId(disk), model::SystemId(0), type};
}

}  // namespace

TEST(Dataset, EventCountsAndSorting) {
  const auto inv = tiny_inventory();
  core::Dataset ds(inv, {event(500.0, 2, model::FailureType::kDisk),
                         event(100.0, 0, model::FailureType::kProtocol),
                         event(300.0, 1, model::FailureType::kDisk)});
  ASSERT_EQ(ds.events().size(), 3u);
  EXPECT_DOUBLE_EQ(ds.events()[0].time, 100.0);
  EXPECT_EQ(ds.event_count(model::FailureType::kDisk), 2u);
  EXPECT_EQ(ds.event_count(model::FailureType::kProtocol), 1u);
  EXPECT_EQ(ds.event_count(model::FailureType::kPerformance), 0u);
}

TEST(Dataset, DropsEventsWithUnknownDisks) {
  const auto inv = tiny_inventory();
  core::Dataset ds(inv, {event(1.0, 99, model::FailureType::kDisk),
                         event(2.0, 0, model::FailureType::kDisk)});
  EXPECT_EQ(ds.events().size(), 1u);
}

TEST(Dataset, SystemAttributionFromInventoryNotEvent) {
  const auto inv = tiny_inventory();
  // Event claims system 0, but disk 2 belongs to system 1.
  core::Dataset ds(inv, {event(1.0, 2, model::FailureType::kDisk)});
  EXPECT_EQ(ds.events()[0].system, model::SystemId(1));
  EXPECT_EQ(ds.system_of(ds.events()[0]).id, model::SystemId(1));
  EXPECT_EQ(ds.disk_of(ds.events()[0]).id, model::DiskId(2));
}

TEST(Dataset, ExposureAccountsReplacementChains) {
  const auto inv = tiny_inventory();
  core::Dataset ds(inv, {});
  // System 0: disk0 full year + disk1 half year + disk4 half year = 2.0;
  // system 1: two full years. Total 4 disk-years.
  EXPECT_NEAR(ds.disk_exposure_years(), 4.0, 1e-9);
  EXPECT_EQ(ds.selected_disk_record_count(), 5u);
}

TEST(Dataset, FilterByClassAndModelAndPaths) {
  const auto inv = tiny_inventory();
  core::Dataset ds(inv, {event(1.0, 0, model::FailureType::kDisk),
                         event(2.0, 2, model::FailureType::kDisk)});

  core::Filter low;
  low.system_class = model::SystemClass::kLowEnd;
  const auto low_ds = ds.filter(low);
  EXPECT_EQ(low_ds.selected_system_count(), 1u);
  EXPECT_EQ(low_ds.events().size(), 1u);
  EXPECT_NEAR(low_ds.disk_exposure_years(), 2.0, 1e-9);

  core::Filter dual;
  dual.paths = model::PathConfig::kDualPath;
  EXPECT_EQ(ds.filter(dual).selected_system_count(), 1u);
  EXPECT_EQ(ds.filter(dual).events()[0].disk, model::DiskId(2));

  core::Filter family;
  family.disk_family = 'H';
  EXPECT_EQ(ds.filter(family).selected_system_count(), 1u);

  core::Filter no_h;
  no_h.exclude_family_h = true;
  EXPECT_EQ(ds.filter(no_h).selected_system_count(), 1u);
  EXPECT_EQ(ds.filter(no_h).events().size(), 1u);

  core::Filter exact;
  exact.disk_model = model::DiskModelName{'A', 2};
  exact.shelf_model = model::ShelfModelName{'A'};
  EXPECT_EQ(ds.filter(exact).selected_system_count(), 1u);

  core::Filter nothing;
  nothing.system_class = model::SystemClass::kMidRange;
  EXPECT_EQ(ds.filter(nothing).selected_system_count(), 0u);
  EXPECT_TRUE(ds.filter(nothing).events().empty());
}

TEST(Dataset, FiltersCompose) {
  const auto inv = tiny_inventory();
  core::Dataset ds(inv, {});
  core::Filter low;
  low.system_class = model::SystemClass::kLowEnd;
  core::Filter dual;
  dual.paths = model::PathConfig::kDualPath;
  // low-end AND dual-path matches nothing in the tiny inventory.
  EXPECT_EQ(ds.filter(low).filter(dual).selected_system_count(), 0u);
}

TEST(Dataset, ScopeCountsAndExposures) {
  const auto inv = tiny_inventory();
  core::Dataset ds(inv, {});
  EXPECT_EQ(ds.selected_shelf_count(), 2u);
  EXPECT_EQ(ds.selected_raid_group_count(), 2u);
  // Both systems deployed at 0 over a 1-year horizon.
  EXPECT_NEAR(ds.raid_group_exposure_years(), 2.0, 1e-9);
}

TEST(Dataset, NullInventoryRejected) {
  EXPECT_THROW(core::Dataset(nullptr, {}), std::invalid_argument);
}

TEST(Dataset, EndToEndMatchesInMemory) {
  // The text-log path and the in-memory path must agree event-for-event.
  auto fs = sim::run_standard(0.01, 99);
  const auto via_logs = core::dataset_via_logs(fs.fleet, fs.result);
  const auto in_memory = core::dataset_in_memory(fs.fleet, fs.result);
  ASSERT_EQ(via_logs.events().size(), in_memory.events().size());
  for (std::size_t i = 0; i < via_logs.events().size(); ++i) {
    EXPECT_EQ(via_logs.events()[i].disk, in_memory.events()[i].disk);
    EXPECT_EQ(via_logs.events()[i].type, in_memory.events()[i].type);
    EXPECT_NEAR(via_logs.events()[i].time, in_memory.events()[i].time, 1e-3);
  }
  EXPECT_NEAR(via_logs.disk_exposure_years(), in_memory.disk_exposure_years(), 1.0);
}
