// Dataset construction, and over it the cohort semantics of core::Source:
// filtering, exposure accounting, joins.
#include "core/dataset.h"

#include <iterator>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/raid_vulnerability.h"
#include "core/source.h"
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

/// The cohort's events, in walk order.
std::vector<core::EventRow> events_of(const core::Source& source) {
  std::vector<core::EventRow> out;
  source.for_each_event([&](const core::EventRow& e) { out.push_back(e); });
  return out;
}

std::size_t event_count(const core::Source& source, model::FailureType type) {
  std::size_t n = 0;
  source.for_each_event([&](const core::EventRow& e) { n += e.type == type; });
  return n;
}

}  // namespace

TEST(Dataset, EventCountsAndSorting) {
  const auto inv = tiny_inventory();
  core::Dataset ds(inv, {event(500.0, 2, model::FailureType::kDisk),
                         event(100.0, 0, model::FailureType::kProtocol),
                         event(300.0, 1, model::FailureType::kDisk)});
  ASSERT_EQ(ds.events().size(), 3u);
  EXPECT_DOUBLE_EQ(ds.events()[0].time, 100.0);
  EXPECT_EQ(event_count(ds, model::FailureType::kDisk), 2u);
  EXPECT_EQ(event_count(ds, model::FailureType::kProtocol), 1u);
  EXPECT_EQ(event_count(ds, model::FailureType::kPerformance), 0u);
}

TEST(Dataset, TiedTimesSortByDiskThenType) {
  // Fed in reverse of the (time, disk, type) key: one order however the
  // events arrive, the one the classifier and the store writer use.
  const auto inv = tiny_inventory();
  core::Dataset ds(inv, {event(200.0, 3, model::FailureType::kPerformance),
                         event(200.0, 3, model::FailureType::kDisk),
                         event(200.0, 2, model::FailureType::kProtocol),
                         event(200.0, 0, model::FailureType::kPerformance),
                         event(200.0, 0, model::FailureType::kPhysicalInterconnect),
                         event(100.0, 4, model::FailureType::kDisk)});
  const struct {
    double time;
    std::uint32_t disk;
    model::FailureType type;
  } want[] = {{100.0, 4, model::FailureType::kDisk},
              {200.0, 0, model::FailureType::kPhysicalInterconnect},
              {200.0, 0, model::FailureType::kPerformance},
              {200.0, 2, model::FailureType::kProtocol},
              {200.0, 3, model::FailureType::kDisk},
              {200.0, 3, model::FailureType::kPerformance}};
  ASSERT_EQ(ds.events().size(), std::size(want));
  for (std::size_t i = 0; i < std::size(want); ++i) {
    EXPECT_EQ(ds.events()[i].time, want[i].time) << i;
    EXPECT_EQ(ds.events()[i].disk, model::DiskId(want[i].disk)) << i;
    EXPECT_EQ(ds.events()[i].type, want[i].type) << i;
  }
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
  const auto rows = events_of(ds);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].system, 1u);
  EXPECT_EQ(rows[0].cls, model::SystemClass::kHighEnd);
  EXPECT_EQ(ds.events()[0].disk, model::DiskId(2));
}

TEST(Dataset, ExposureAccountsReplacementChains) {
  const auto inv = tiny_inventory();
  core::Dataset ds(inv, {});
  // System 0: disk0 full year + disk1 half year + disk4 half year = 2.0;
  // system 1: two full years. Total 4 disk-years.
  const core::Source source(ds);
  EXPECT_NEAR(source.disk_years().total, 4.0, 1e-9);
  EXPECT_EQ(source.count().disk_records, 5u);
}

TEST(Dataset, FilterByClassAndModelAndPaths) {
  const auto inv = tiny_inventory();
  core::Dataset ds(inv, {event(1.0, 0, model::FailureType::kDisk),
                         event(2.0, 2, model::FailureType::kDisk)});

  core::Filter low;
  low.system_class = model::SystemClass::kLowEnd;
  const core::Source low_cohort(ds, low);
  EXPECT_EQ(low_cohort.count().systems, 1u);
  EXPECT_EQ(events_of(low_cohort).size(), 1u);
  EXPECT_NEAR(low_cohort.disk_years().total, 2.0, 1e-9);

  core::Filter dual;
  dual.paths = model::PathConfig::kDualPath;
  EXPECT_EQ(core::Source(ds, dual).count().systems, 1u);
  EXPECT_EQ(events_of(core::Source(ds, dual))[0].disk, 2u);

  core::Filter family;
  family.disk_family = 'H';
  EXPECT_EQ(core::Source(ds, family).count().systems, 1u);

  core::Filter no_h;
  no_h.exclude_family_h = true;
  EXPECT_EQ(core::Source(ds, no_h).count().systems, 1u);
  EXPECT_EQ(events_of(core::Source(ds, no_h)).size(), 1u);

  core::Filter exact;
  exact.disk_model = model::DiskModelName{'A', 2};
  exact.shelf_model = model::ShelfModelName{'A'};
  EXPECT_EQ(core::Source(ds, exact).count().systems, 1u);

  core::Filter nothing;
  nothing.system_class = model::SystemClass::kMidRange;
  EXPECT_EQ(core::Source(ds, nothing).count().systems, 0u);
  EXPECT_TRUE(events_of(core::Source(ds, nothing)).empty());
}

TEST(Dataset, FiltersCompose) {
  const auto inv = tiny_inventory();
  core::Dataset ds(inv, {});
  core::Filter low;
  low.system_class = model::SystemClass::kLowEnd;
  core::Filter dual;
  dual.paths = model::PathConfig::kDualPath;
  // low-end AND dual-path matches nothing in the tiny inventory.
  EXPECT_EQ(core::Source(core::Source(ds, low), dual).count().systems, 0u);
  // Narrowing twice by one filter is that filter's cohort.
  const core::Source low_twice(core::Source(ds, low), low);
  EXPECT_EQ(low_twice.count().systems, 1u);
  EXPECT_FALSE(low_twice.whole());
}

TEST(Dataset, ScopeCountsAndExposures) {
  const auto inv = tiny_inventory();
  core::Dataset ds(inv, {});
  const core::CohortCount count = core::Source(ds).count();
  EXPECT_EQ(count.systems, 2u);
  EXPECT_EQ(count.shelves, 2u);
  EXPECT_EQ(count.raid_groups, 2u);
  // Both systems deployed at 0 over a 1-year horizon.
  EXPECT_NEAR(core::raid_group_years(ds), 2.0, 1e-9);
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
  EXPECT_NEAR(core::Source(via_logs).disk_years().total,
              core::Source(in_memory).disk_years().total, 1.0);
}
