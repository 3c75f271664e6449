// AFR computation: exposure-based rates, breakdowns, groupings, stability.
#include "core/afr.h"

#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "model/time.h"

namespace core = storsubsim::core;
namespace log_ns = storsubsim::log;
namespace model = storsubsim::model;

namespace {

/// Inventory with a single system holding `disks` disks for `years` each.
std::shared_ptr<log_ns::Inventory> uniform_inventory(std::size_t disks, double years,
                                                     model::SystemClass cls,
                                                     model::DiskModelName dm = {'A', 2},
                                                     model::ShelfModelName sm = {'A'}) {
  auto inv = std::make_shared<log_ns::Inventory>();
  inv->horizon_seconds = model::from_years(years);
  log_ns::InventorySystem s;
  s.id = model::SystemId(0);
  s.cls = cls;
  s.disk_model = dm;
  s.shelf_model = sm;
  inv->systems = {s};
  inv->shelves = {{model::ShelfId(0), model::SystemId(0), sm}};
  inv->raid_groups = {{model::RaidGroupId(0), model::SystemId(0), model::RaidType::kRaid4,
                       static_cast<std::uint32_t>(disks), 1}};
  for (std::size_t i = 0; i < disks; ++i) {
    log_ns::InventoryDisk d;
    d.id = model::DiskId(static_cast<std::uint32_t>(i));
    d.model = dm;
    d.system = model::SystemId(0);
    d.shelf = model::ShelfId(0);
    d.raid_group = model::RaidGroupId(0);
    d.slot = static_cast<std::uint32_t>(i);
    d.install_time = 0.0;
    d.remove_time = std::numeric_limits<double>::infinity();
    inv->disks.push_back(d);
  }
  return inv;
}

core::FailureEvent ev(double t, std::uint32_t disk, model::FailureType type) {
  return core::FailureEvent{t, model::DiskId(disk), model::SystemId(0), type};
}

}  // namespace

TEST(Afr, ExactArithmetic) {
  // 100 disks x 2 years = 200 disk-years; 4 disk failures -> 2% AFR.
  const auto inv = uniform_inventory(100, 2.0, model::SystemClass::kLowEnd);
  std::vector<core::FailureEvent> events;
  for (int i = 0; i < 4; ++i) events.push_back(ev(1000.0 * (i + 1),
                                                  static_cast<std::uint32_t>(i),
                                                  model::FailureType::kDisk));
  events.push_back(ev(99.0, 7, model::FailureType::kPhysicalInterconnect));
  const core::Dataset ds(inv, std::move(events));
  const auto b = core::compute_afr(ds, "test");
  EXPECT_EQ(b.label, "test");
  EXPECT_NEAR(b.disk_years, 200.0, 1e-9);
  EXPECT_NEAR(b.afr_pct(model::FailureType::kDisk), 2.0, 1e-9);
  EXPECT_NEAR(b.afr_pct(model::FailureType::kPhysicalInterconnect), 0.5, 1e-9);
  EXPECT_NEAR(b.total_afr_pct(), 2.5, 1e-9);
  EXPECT_EQ(b.total_events(), 5u);
  EXPECT_NEAR(b.share(model::FailureType::kDisk), 0.8, 1e-12);
}

TEST(Afr, EmptyDatasetIsZero) {
  const auto inv = uniform_inventory(10, 1.0, model::SystemClass::kLowEnd);
  const core::Dataset ds(inv, {});
  const auto b = core::compute_afr(ds);
  EXPECT_DOUBLE_EQ(b.total_afr_pct(), 0.0);
  EXPECT_DOUBLE_EQ(b.share(model::FailureType::kDisk), 0.0);
}

TEST(Afr, ConfidenceIntervalContainsPoint) {
  const auto inv = uniform_inventory(100, 2.0, model::SystemClass::kLowEnd);
  std::vector<core::FailureEvent> events;
  for (std::uint32_t i = 0; i < 20; ++i) events.push_back(ev(10.0 * i, i,
                                                             model::FailureType::kDisk));
  const core::Dataset ds(inv, std::move(events));
  const auto b = core::compute_afr(ds);
  const auto ci = b.afr_ci(model::FailureType::kDisk, 0.995);
  EXPECT_NEAR(ci.point, 10.0, 1e-9);  // 20 / 200 dy = 10%
  EXPECT_LT(ci.lower, ci.point);
  EXPECT_GT(ci.upper, ci.point);
  // Wider confidence -> wider interval.
  const auto narrow = b.afr_ci(model::FailureType::kDisk, 0.80);
  EXPECT_GT(ci.half_width(), narrow.half_width());
}

TEST(Afr, ExposureNotDiskCount) {
  // Disks present for half the window contribute half the exposure: same
  // event count => double the AFR.
  auto inv = uniform_inventory(100, 2.0, model::SystemClass::kLowEnd);
  auto half = std::make_shared<log_ns::Inventory>(*inv);
  for (auto& d : half->disks) d.remove_time = model::from_years(1.0);
  std::vector<core::FailureEvent> events = {ev(100.0, 0, model::FailureType::kDisk),
                                            ev(200.0, 1, model::FailureType::kDisk)};
  const core::Dataset full_ds(inv, events);
  const core::Dataset half_ds(half, events);
  EXPECT_NEAR(core::Source(half_ds).disk_years().total,
              0.5 * core::Source(full_ds).disk_years().total, 1e-9);
  EXPECT_NEAR(core::compute_afr(half_ds).total_afr_pct(),
              2.0 * core::compute_afr(full_ds).total_afr_pct(), 1e-9);
}

TEST(AfrGroupings, ByClassCoversSelectedOnly) {
  const auto inv = uniform_inventory(10, 1.0, model::SystemClass::kMidRange);
  const core::Dataset ds(inv, {ev(5.0, 0, model::FailureType::kProtocol)});
  const auto rows = core::afr_by_class(ds);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].label, "mid-range");
  EXPECT_EQ(rows[0].events[model::index_of(model::FailureType::kProtocol)], 1u);
}

TEST(AfrGroupings, ByDiskAndShelfModelLabels) {
  const auto inv = uniform_inventory(10, 1.0, model::SystemClass::kLowEnd, {'D', 3}, {'B'});
  const core::Dataset ds(inv, {});
  const auto by_disk = core::afr_by_disk_model(ds);
  ASSERT_EQ(by_disk.size(), 1u);
  EXPECT_EQ(by_disk[0].label, "Disk D-3");
}

TEST(AfrGroupings, ByPathConfig) {
  auto inv = uniform_inventory(10, 1.0, model::SystemClass::kHighEnd);
  // Add a second, dual-path system with 10 more disks.
  log_ns::InventorySystem s1 = inv->systems[0];
  s1.id = model::SystemId(1);
  s1.paths = model::PathConfig::kDualPath;
  inv->systems.push_back(s1);
  inv->shelves.push_back({model::ShelfId(1), model::SystemId(1), s1.shelf_model});
  inv->raid_groups.push_back(
      {model::RaidGroupId(1), model::SystemId(1), model::RaidType::kRaid4, 10, 1});
  for (std::uint32_t i = 0; i < 10; ++i) {
    auto d = inv->disks[0];
    d.id = model::DiskId(10 + i);
    d.system = model::SystemId(1);
    d.shelf = model::ShelfId(1);
    d.raid_group = model::RaidGroupId(1);
    inv->disks.push_back(d);
  }
  const core::Dataset ds(inv, {ev(5.0, 0, model::FailureType::kPhysicalInterconnect)});
  const auto rows = core::afr_by_path_config(ds);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].label, "single-path");
  EXPECT_EQ(rows[1].label, "dual-path");
  EXPECT_EQ(rows[0].total_events(), 1u);
  EXPECT_EQ(rows[1].total_events(), 0u);
}

TEST(AfrStability, RequiresTwoEnvironments) {
  const auto inv = uniform_inventory(10, 1.0, model::SystemClass::kLowEnd);
  const core::Dataset ds(inv, {});
  EXPECT_TRUE(core::afr_stability_by_disk_model(ds).empty());
}

TEST(AfrStability, ComputesRelativeSpread) {
  // Two environments with the same disk model: identical disk AFR, very
  // different subsystem AFR (the paper's Finding 4 situation).
  auto inv = uniform_inventory(100, 1.0, model::SystemClass::kLowEnd, {'D', 2}, {'A'});
  log_ns::InventorySystem s1 = inv->systems[0];
  s1.id = model::SystemId(1);
  s1.shelf_model = {'B'};
  inv->systems.push_back(s1);
  inv->shelves.push_back({model::ShelfId(1), model::SystemId(1), {'B'}});
  inv->raid_groups.push_back(
      {model::RaidGroupId(1), model::SystemId(1), model::RaidType::kRaid4, 100, 1});
  for (std::uint32_t i = 0; i < 100; ++i) {
    auto d = inv->disks[0];
    d.id = model::DiskId(100 + i);
    d.system = model::SystemId(1);
    d.shelf = model::ShelfId(1);
    d.raid_group = model::RaidGroupId(1);
    inv->disks.push_back(d);
  }
  std::vector<core::FailureEvent> events;
  // Each environment: 2 disk failures. Environment B: 20 extra interconnect.
  events.push_back(ev(1.0, 0, model::FailureType::kDisk));
  events.push_back(ev(2.0, 1, model::FailureType::kDisk));
  events.push_back(ev(3.0, 100, model::FailureType::kDisk));
  events.push_back(ev(4.0, 101, model::FailureType::kDisk));
  for (std::uint32_t i = 0; i < 20; ++i) {
    events.push_back(ev(10.0 + i, 102 + i, model::FailureType::kPhysicalInterconnect));
  }
  const core::Dataset ds(inv, std::move(events));
  const auto rows = core::afr_stability_by_disk_model(ds);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].disk_model, "D-2");
  EXPECT_EQ(rows[0].environments, 2u);
  EXPECT_NEAR(rows[0].rel_stddev_disk_afr, 0.0, 1e-9);
  EXPECT_GT(rows[0].rel_stddev_subsystem_afr, 0.4);
}
