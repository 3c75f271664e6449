// Snapshot round-trips (fleet -> text -> inventory), corruption handling,
// and exposure math on the parsed inventory.
#include "log/snapshot.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/fleet.h"

namespace log_ns = storsubsim::log;
namespace model = storsubsim::model;

namespace {

model::Fleet test_fleet(std::uint64_t seed = 3) {
  model::CohortSpec cohort;
  cohort.label = "snap";
  cohort.cls = model::SystemClass::kHighEnd;
  cohort.shelf_model = {'B'};
  cohort.disk_mix = {{{'F', 1}, 1.0}};
  cohort.num_systems = 20;
  cohort.mean_shelves_per_system = 3.0;
  cohort.mean_disks_per_shelf = 9.0;
  cohort.raid_group_size = 7;
  cohort.raid_span_shelves = 2;
  cohort.dual_path_fraction = 0.5;
  model::FleetConfig config;
  config.cohorts = {cohort};
  config.horizon_seconds = model::from_years(2.0);
  config.seed = seed;
  return model::Fleet::build(config);
}

/// A fleet with a retired disk record, so DISK lines carry both time forms
/// and the replacement path is exercised.
model::Fleet fleet_with_replacement() {
  auto fleet = test_fleet();
  const auto disk = fleet.shelves()[0].slots[0];
  const double deploy = fleet.system(fleet.shelves()[0].system).deploy_time;
  fleet.replace_disk(disk, deploy + 5000.0, deploy + 9000.0);
  return fleet;
}

}  // namespace

TEST(SnapshotRange, ChunkRejectsIdsNotDenseFromItsBase) {
  // Each record kind's ids run densely from zero; a gap fails on its line
  // before the whole-section checks run.
  const auto system = [](int id) {
    return "SYSTEM id=" + std::to_string(id) +
           " class=low-end paths=single-path disk-model=A-2 shelf-model=A deploy=0.0 "
           "cohort=0\n";
  };
  const auto dense = log_ns::parse_snapshot(system(0));
  EXPECT_EQ(dense.error.find("not dense"), std::string::npos) << dense.error;

  const auto off_by_one = log_ns::parse_snapshot(system(1));
  EXPECT_FALSE(off_by_one.ok());
  EXPECT_NE(off_by_one.error.find("SYSTEM ids not dense"), std::string::npos);
  EXPECT_NE(off_by_one.error.find("line 1"), std::string::npos);

  const std::string disk =
      "DISK id=1 model=A-2 sys=0 shelf=0 group=- slot=0 install=0.000 remove=inf\n";
  const auto behind = log_ns::parse_snapshot(system(0) + disk);
  EXPECT_FALSE(behind.ok());
  EXPECT_NE(behind.error.find("DISK ids not dense"), std::string::npos);
}

TEST(Snapshot, RoundTripMatchesDirectInventory) {
  const auto fleet = fleet_with_replacement();  // retired records round-trip too
  log_ns::LineWriter text;
  log_ns::write_snapshot(text, fleet);
  const auto parsed = log_ns::parse_snapshot(text.view());
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  const auto direct = log_ns::inventory_from_fleet(fleet);
  const auto& inv = parsed.inventory;
  ASSERT_EQ(inv.systems.size(), direct.systems.size());
  ASSERT_EQ(inv.shelves.size(), direct.shelves.size());
  ASSERT_EQ(inv.disks.size(), direct.disks.size());
  ASSERT_EQ(inv.raid_groups.size(), direct.raid_groups.size());
  EXPECT_DOUBLE_EQ(inv.horizon_seconds, direct.horizon_seconds);

  for (std::size_t i = 0; i < inv.systems.size(); ++i) {
    EXPECT_EQ(inv.systems[i].cls, direct.systems[i].cls);
    EXPECT_EQ(inv.systems[i].paths, direct.systems[i].paths);
    EXPECT_EQ(inv.systems[i].disk_model, direct.systems[i].disk_model);
    EXPECT_EQ(inv.systems[i].shelf_model, direct.systems[i].shelf_model);
    EXPECT_NEAR(inv.systems[i].deploy_time, direct.systems[i].deploy_time, 1e-2);
    EXPECT_EQ(inv.systems[i].cohort, direct.systems[i].cohort);
  }
  for (std::size_t i = 0; i < inv.disks.size(); ++i) {
    EXPECT_EQ(inv.disks[i].model, direct.disks[i].model);
    EXPECT_EQ(inv.disks[i].system, direct.disks[i].system);
    EXPECT_EQ(inv.disks[i].shelf, direct.disks[i].shelf);
    EXPECT_EQ(inv.disks[i].raid_group, direct.disks[i].raid_group);
    EXPECT_EQ(inv.disks[i].slot, direct.disks[i].slot);
    EXPECT_NEAR(inv.disks[i].install_time, direct.disks[i].install_time, 1e-2);
    if (std::isinf(direct.disks[i].remove_time)) {
      EXPECT_TRUE(std::isinf(inv.disks[i].remove_time));
    } else {
      EXPECT_NEAR(inv.disks[i].remove_time, direct.disks[i].remove_time, 1e-2);
    }
  }
  for (std::size_t i = 0; i < inv.raid_groups.size(); ++i) {
    EXPECT_EQ(inv.raid_groups[i].type, direct.raid_groups[i].type);
    EXPECT_EQ(inv.raid_groups[i].member_count, direct.raid_groups[i].member_count);
    EXPECT_EQ(inv.raid_groups[i].shelf_span, direct.raid_groups[i].shelf_span);
  }
}

TEST(Snapshot, ExposureMatchesFleet) {
  const auto fleet = test_fleet(9);
  const auto inv = log_ns::inventory_from_fleet(fleet);
  double total = 0.0;
  for (const auto& d : inv.disks) total += inv.disk_exposure_years(d);
  EXPECT_NEAR(total, fleet.total_disk_exposure_years(), 1e-9);
}

TEST(Snapshot, MissingHeaderRejected) {
  const std::string text("SYSTEM id=0 class=low-end paths=single-path disk-model=A-2 "
                         "shelf-model=A deploy=0.0 cohort=0\nEND\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_FALSE(parsed.ok());
}

TEST(Snapshot, MissingEndRejected) {
  const auto fleet = test_fleet();
  log_ns::LineWriter text;
  log_ns::write_snapshot(text, fleet);
  std::string s = text.take();
  s.resize(s.size() - 4);  // drop "END\n"
  const auto parsed = log_ns::parse_snapshot(s);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("END"), std::string::npos);
}

TEST(Snapshot, CorruptFieldRejectedWithLineNumber) {
  const std::string text(
      "SNAPSHOT horizon=1000.0\n"
      "SYSTEM id=0 class=warp-core paths=single-path disk-model=A-2 shelf-model=A "
      "deploy=0.0 cohort=0\n"
      "END\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("line 2"), std::string::npos);
}

TEST(Snapshot, NonDenseIdsRejected) {
  const std::string text(
      "SNAPSHOT horizon=1000.0\n"
      "SYSTEM id=5 class=low-end paths=single-path disk-model=A-2 shelf-model=A "
      "deploy=0.0 cohort=0\n"
      "END\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("dense"), std::string::npos);
}

TEST(Snapshot, DanglingReferenceRejected) {
  const std::string text(
      "SNAPSHOT horizon=1000.0\n"
      "SYSTEM id=0 class=low-end paths=single-path disk-model=A-2 shelf-model=A "
      "deploy=0.0 cohort=0\n"
      "SHELF id=0 sys=9 model=A\n"
      "END\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("unknown system"), std::string::npos);
}

TEST(Snapshot, UnknownRecordTypeRejected) {
  const std::string text(
      "SNAPSHOT horizon=1000.0\n"
      "FLUX id=0 capacitance=1.21\n"
      "END\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("unrecognized"), std::string::npos);
}

TEST(Snapshot, CommentsAndBlankLinesIgnored) {
  const std::string text(
      "# generated by storsubsim\n"
      "\n"
      "SNAPSHOT horizon=1000.0\n"
      "END\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_TRUE(parsed.inventory.systems.empty());
}
