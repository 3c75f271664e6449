// Time-between-failure analysis: gap computation, duplicate filtering,
// scope separation, and the overall-series pooling.
#include "core/burstiness.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/store_bridge.h"
#include "model/time.h"
#include "store/shards.h"

namespace core = storsubsim::core;
namespace log_ns = storsubsim::log;
namespace model = storsubsim::model;
namespace store = storsubsim::store;

namespace {

/// One system, two shelves (2 disks each); disks 0,1 in shelf 0 and group 0,
/// disks 2,3 in shelf 1 and group 0 (the group spans both shelves), so shelf
/// scope and group scope pool events differently.
std::shared_ptr<log_ns::Inventory> two_shelf_inventory() {
  auto inv = std::make_shared<log_ns::Inventory>();
  inv->horizon_seconds = model::from_years(2.0);
  log_ns::InventorySystem s;
  s.id = model::SystemId(0);
  s.cls = model::SystemClass::kMidRange;
  s.disk_model = {'D', 2};
  s.shelf_model = {'B'};
  inv->systems = {s};
  inv->shelves = {{model::ShelfId(0), model::SystemId(0), {'B'}},
                  {model::ShelfId(1), model::SystemId(0), {'B'}}};
  inv->raid_groups = {
      {model::RaidGroupId(0), model::SystemId(0), model::RaidType::kRaid4, 4, 2}};
  for (std::uint32_t i = 0; i < 4; ++i) {
    log_ns::InventoryDisk d;
    d.id = model::DiskId(i);
    d.model = s.disk_model;
    d.system = model::SystemId(0);
    d.shelf = model::ShelfId(i / 2);
    d.raid_group = model::RaidGroupId(0);
    d.slot = i % 2;
    d.remove_time = std::numeric_limits<double>::infinity();
    inv->disks.push_back(d);
  }
  return inv;
}

core::FailureEvent ev(double t, std::uint32_t disk,
                      model::FailureType type = model::FailureType::kDisk) {
  return core::FailureEvent{t, model::DiskId(disk), model::SystemId(0), type};
}

/// `count` one-shelf systems: system s holds shelf s, RAID group s and disks
/// 3s..3s+2, all installed at 0. System classes cycle from index `cls0`, so
/// one system alone (a shard's fleet in its local ids) keeps the class it
/// has in the whole fleet.
log_ns::Inventory one_shelf_systems(std::uint32_t count, std::uint32_t cls0) {
  log_ns::Inventory inv;
  inv.horizon_seconds = model::from_years(1.0);
  for (std::uint32_t s = 0; s < count; ++s) {
    log_ns::InventorySystem sys;
    sys.id = model::SystemId(s);
    sys.cls = model::kAllSystemClasses[(cls0 + s) % model::kAllSystemClasses.size()];
    sys.disk_model = {'D', 2};
    sys.shelf_model = {'B'};
    inv.systems.push_back(sys);
    inv.shelves.push_back({model::ShelfId(s), model::SystemId(s), {'B'}});
    inv.raid_groups.push_back(
        {model::RaidGroupId(s), model::SystemId(s), model::RaidType::kRaid4, 3, 1});
    for (std::uint32_t slot = 0; slot < 3; ++slot) {
      log_ns::InventoryDisk d;
      d.id = model::DiskId(3 * s + slot);
      d.model = sys.disk_model;
      d.system = model::SystemId(s);
      d.shelf = model::ShelfId(s);
      d.raid_group = model::RaidGroupId(s);
      d.slot = slot;
      inv.disks.push_back(d);
    }
  }
  return inv;
}

/// Per shelf, disk a fails at 100 s, then disks b and a at 200 s, listed b
/// first, then b again at 300 s; disk c reports a protocol and a disk
/// failure at 500 s. Ordered by (time, disk, type), the shelf's disk series
/// is a@100, a@200 (a duplicate), b@200, b@300 (a duplicate), c@500: two
/// gaps, 0 s and 200 s. b@200 before a@200 would make it four: 100, 0,
/// 100, 200.
std::vector<core::FailureEvent> tied_events(std::uint32_t shelf, std::uint32_t system) {
  const std::uint32_t a = 3 * shelf;
  const std::uint32_t b = a + 1;
  const std::uint32_t c = a + 2;
  auto at = [&](double t, std::uint32_t disk, model::FailureType type) {
    return core::FailureEvent{t, model::DiskId(disk), model::SystemId(system), type};
  };
  return {at(100.0, a, model::FailureType::kDisk),
          at(200.0, b, model::FailureType::kDisk),
          at(200.0, a, model::FailureType::kDisk),
          at(300.0, b, model::FailureType::kDisk),
          at(500.0, c, model::FailureType::kProtocol),
          at(500.0, c, model::FailureType::kDisk)};
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

}  // namespace

TEST(Burstiness, GapsWithinShelfOnly) {
  const auto inv = two_shelf_inventory();
  // Shelf 0: disks 0,1 at t=100 and t=400; shelf 1: disk 2 at t=200.
  const core::Dataset ds(inv, {ev(100.0, 0), ev(400.0, 1), ev(200.0, 2)});
  const auto r = core::time_between_failures(ds, core::Scope::kShelf);
  const auto disk_series = core::series_of(model::FailureType::kDisk);
  ASSERT_EQ(r.gap_count(disk_series), 1u);
  EXPECT_DOUBLE_EQ(r.gaps[disk_series][0], 300.0);  // 400 - 100 within shelf 0
}

TEST(Burstiness, GroupScopePoolsAcrossShelves) {
  const auto inv = two_shelf_inventory();
  const core::Dataset ds(inv, {ev(100.0, 0), ev(400.0, 1), ev(200.0, 2)});
  const auto r = core::time_between_failures(ds, core::Scope::kRaidGroup);
  const auto disk_series = core::series_of(model::FailureType::kDisk);
  // All three in one group: gaps 100 (100->200) and 200 (200->400).
  ASSERT_EQ(r.gap_count(disk_series), 2u);
  EXPECT_DOUBLE_EQ(r.gaps[disk_series][0], 100.0);
  EXPECT_DOUBLE_EQ(r.gaps[disk_series][1], 200.0);
}

TEST(Burstiness, DuplicateSameDiskFiltered) {
  const auto inv = two_shelf_inventory();
  // Disk 0 reports at 100 and again at 150 (duplicate); disk 1 at 1000.
  const core::Dataset ds(inv, {ev(100.0, 0), ev(150.0, 0), ev(1000.0, 1)});
  const auto r = core::time_between_failures(ds, core::Scope::kShelf);
  const auto disk_series = core::series_of(model::FailureType::kDisk);
  ASSERT_EQ(r.gap_count(disk_series), 1u);
  // The duplicate refreshed the anchor: the gap measures from the latest
  // same-disk report (150), not the first (100).
  EXPECT_DOUBLE_EQ(r.gaps[disk_series][0], 850.0);
}

TEST(Burstiness, TypesKeptSeparateButPooledInOverall) {
  const auto inv = two_shelf_inventory();
  const core::Dataset ds(
      inv, {ev(100.0, 0, model::FailureType::kDisk),
            ev(300.0, 1, model::FailureType::kPhysicalInterconnect),
            ev(600.0, 0, model::FailureType::kPhysicalInterconnect)});
  const auto r = core::time_between_failures(ds, core::Scope::kShelf);
  EXPECT_EQ(r.gap_count(core::series_of(model::FailureType::kDisk)), 0u);
  ASSERT_EQ(r.gap_count(core::series_of(model::FailureType::kPhysicalInterconnect)), 1u);
  EXPECT_DOUBLE_EQ(r.gaps[core::series_of(model::FailureType::kPhysicalInterconnect)][0],
                   300.0);
  // Overall pools all three: gaps 200 and 300.
  ASSERT_EQ(r.gap_count(core::kOverallSeries), 2u);
  EXPECT_DOUBLE_EQ(r.gaps[core::kOverallSeries][0], 200.0);
  EXPECT_DOUBLE_EQ(r.gaps[core::kOverallSeries][1], 300.0);
}

TEST(Burstiness, FractionWithinAndEcdf) {
  const auto inv = two_shelf_inventory();
  const core::Dataset ds(inv, {ev(0.0, 0), ev(5000.0, 1), ev(100000.0, 0),
                               ev(120000.0, 1)});
  const auto r = core::time_between_failures(ds, core::Scope::kShelf);
  const auto s = core::series_of(model::FailureType::kDisk);
  // Gaps: 5000, 95000, 20000.
  ASSERT_EQ(r.gap_count(s), 3u);
  EXPECT_NEAR(r.fraction_within(s, 1e4), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.fraction_within(s, 1e6), 1.0, 1e-12);
  const auto ecdf = r.ecdf(s);
  EXPECT_DOUBLE_EQ(ecdf(5000.0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(r.fraction_within(core::kOverallSeries, 0.0), 0.0);
}

TEST(Burstiness, EmptyDataset) {
  const auto inv = two_shelf_inventory();
  const core::Dataset ds(inv, {});
  const auto r = core::time_between_failures(ds, core::Scope::kShelf);
  for (std::size_t s = 0; s < core::kSeriesCount; ++s) {
    EXPECT_EQ(r.gap_count(s), 0u);
    EXPECT_DOUBLE_EQ(r.fraction_within(s, 1e9), 0.0);
  }
}

TEST(Burstiness, ScopeStateResetsBetweenScopes) {
  const auto inv = two_shelf_inventory();
  // Last event of shelf 0 at t=900; first of shelf 1 at t=1000 — must NOT
  // produce a 100 s gap across scopes.
  const core::Dataset ds(inv, {ev(100.0, 0), ev(900.0, 1), ev(1000.0, 2), ev(5000.0, 3)});
  const auto r = core::time_between_failures(ds, core::Scope::kShelf);
  const auto s = core::series_of(model::FailureType::kDisk);
  ASSERT_EQ(r.gap_count(s), 2u);
  EXPECT_DOUBLE_EQ(r.gaps[s][0], 800.0);   // within shelf 0
  EXPECT_DOUBLE_EQ(r.gaps[s][1], 4000.0);  // within shelf 1
}

TEST(Burstiness, TiedEventsGiveOneAnswerOnEveryBackend) {
  constexpr std::uint32_t kShards = 4;
  const double horizon = model::from_years(1.0);

  // The in-memory Dataset of the whole fleet.
  std::vector<core::FailureEvent> all;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (const auto& e : tied_events(s, s)) all.push_back(e);
  }
  const core::Dataset ds(std::make_shared<log_ns::Inventory>(one_shelf_systems(kShards, 0)),
                         all);

  // The same fleet as one store file ...
  const std::string file = temp_path("tied.store");
  ASSERT_TRUE(core::write_store(file, core::SimulationDataset{ds, {}, {}}, 1, 1.0).ok());
  store::ShardStore single;
  ASSERT_TRUE(single.open(file).ok());

  // ... and as a 4-shard directory, one system per shard in its local ids.
  const std::string dir = temp_path("tied.shards");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  store::ShardManifest manifest;
  manifest.seed = 1;
  manifest.horizon_seconds = horizon;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const core::Dataset part(std::make_shared<log_ns::Inventory>(one_shelf_systems(1, s)),
                             tied_events(0, 0));
    store::ShardInfo info;
    info.file = "shard-" + std::to_string(s) + ".store";
    info.sys_begin = s;
    info.sys_end = s + 1;
    info.systems = info.shelves = info.raid_groups = 1;
    info.disks_initial = info.disks_total = 3;
    info.events = part.parts()[0].events.size();
    ASSERT_TRUE(
        core::write_store(dir + "/" + info.file, core::SimulationDataset{part, {}, {}}, 1, 1.0)
            .ok());
    manifest.shards.push_back(info);
    manifest.systems += 1;
    manifest.shelves += 1;
    manifest.raid_groups += 1;
    manifest.disks_initial += 3;
    manifest.disks_total += 3;
    manifest.events += info.events;
  }
  ASSERT_TRUE(store::merge_shard_tables(dir, &manifest.shards, horizon, &manifest.exposure,
                                        &manifest.meta)
                  .ok());
  ASSERT_TRUE(store::write_manifest_file(dir, manifest).ok());
  store::ShardStore sharded;
  ASSERT_TRUE(sharded.open(dir).ok());
  ASSERT_TRUE(sharded.open_all().ok());
  ASSERT_EQ(sharded.shard_count(), kShards);

  const auto disk = core::series_of(model::FailureType::kDisk);
  for (const auto scope : {core::Scope::kShelf, core::Scope::kRaidGroup}) {
    const auto want = core::time_between_failures(ds, scope);
    ASSERT_EQ(want.gaps[disk].size(), 2 * kShards);
    for (std::uint32_t s = 0; s < kShards; ++s) {
      EXPECT_DOUBLE_EQ(want.gaps[disk][2 * s], 0.0);
      EXPECT_DOUBLE_EQ(want.gaps[disk][2 * s + 1], 200.0);
    }
    for (const auto* backend : {&single, &sharded}) {
      const auto got = core::time_between_failures(*backend, scope);
      for (std::size_t series = 0; series < core::kSeriesCount; ++series) {
        EXPECT_EQ(got.gaps[series], want.gaps[series]) << "series " << series;
      }
    }
  }

  std::remove(file.c_str());
  for (const auto& info : manifest.shards) std::remove((dir + "/" + info.file).c_str());
  std::remove((dir + "/" + std::string(store::kManifestFileName)).c_str());
  ::rmdir(dir.c_str());
}
