// Fleet construction invariants, determinism, replacement chains, exposure
// accounting.
#include "model/fleet.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "model/time.h"

namespace model = storsubsim::model;

namespace {

model::FleetConfig small_config(std::uint64_t seed = 11) {
  model::CohortSpec cohort;
  cohort.label = "test";
  cohort.cls = model::SystemClass::kMidRange;
  cohort.shelf_model = {'B'};
  cohort.disk_mix = {{{'D', 2}, 0.5}, {{'A', 2}, 0.5}};
  cohort.num_systems = 50;
  cohort.mean_shelves_per_system = 4.0;
  cohort.mean_disks_per_shelf = 10.0;
  cohort.raid_group_size = 8;
  cohort.raid_span_shelves = 3;
  cohort.dual_path_fraction = 0.4;
  model::FleetConfig config;
  config.cohorts = {cohort};
  config.horizon_seconds = model::from_years(2.0);
  config.seed = seed;
  return config;
}

}  // namespace

TEST(FleetBuild, StructuralInvariants) {
  const auto fleet = model::Fleet::build(small_config());
  ASSERT_EQ(fleet.systems().size(), 50u);
  EXPECT_GT(fleet.shelves().size(), 50u);
  EXPECT_GT(fleet.raid_groups().size(), 0u);
  EXPECT_EQ(fleet.initial_disk_count(), fleet.disks().size());

  for (const auto& system : fleet.systems()) {
    EXPECT_FALSE(system.shelves.empty());
    for (const auto shelf_id : system.shelves) {
      const auto& shelf = fleet.shelf(shelf_id);
      EXPECT_EQ(shelf.system, system.id);
      EXPECT_EQ(shelf.model, system.shelf_model);
      EXPECT_LE(shelf.occupied_slots, model::kShelfSlots);
      EXPECT_GE(shelf.occupied_slots, 1u);
      // Slots below occupied_slots hold disks; the rest are empty.
      for (std::uint32_t s = 0; s < model::kShelfSlots; ++s) {
        if (s < shelf.occupied_slots) {
          ASSERT_TRUE(shelf.slots[s].valid());
          const auto& disk = fleet.disk(shelf.slots[s]);
          EXPECT_EQ(disk.shelf, shelf.id);
          EXPECT_EQ(disk.slot, s);
          EXPECT_EQ(disk.system, system.id);
          EXPECT_EQ(disk.model, system.disk_model);
          EXPECT_DOUBLE_EQ(disk.install_time, system.deploy_time);
        } else {
          EXPECT_FALSE(shelf.slots[s].valid());
        }
      }
    }
  }
}

TEST(FleetBuild, EveryDiskInExactlyOneRaidGroup) {
  const auto fleet = model::Fleet::build(small_config());
  std::set<std::pair<std::uint32_t, std::uint32_t>> group_slots;
  std::size_t total_members = 0;
  for (const auto& group : fleet.raid_groups()) {
    EXPECT_GE(group.members.size(), 2u);
    for (const auto& ref : group.members) {
      const bool inserted = group_slots.insert({ref.shelf.value(), ref.slot}).second;
      EXPECT_TRUE(inserted) << "slot in two groups";
      // The slot's occupant points back at the group.
      const auto disk_id = fleet.disk_in(ref);
      ASSERT_TRUE(disk_id.valid());
      EXPECT_EQ(fleet.disk(disk_id).raid_group, group.id);
    }
    total_members += group.members.size();
  }
  EXPECT_EQ(total_members, fleet.disks().size());
}

TEST(FleetBuild, RaidGroupsSpanMultipleShelves) {
  const auto fleet = model::Fleet::build(small_config());
  double total_span = 0.0;
  std::size_t groups = 0;
  for (const auto& group : fleet.raid_groups()) {
    const auto span = group.shelf_span();
    EXPECT_GE(span, 1u);
    EXPECT_LE(span, 3u);  // configured raid_span_shelves
    total_span += span;
    ++groups;
  }
  // With span target 3 and 8-disk groups, the average span should be close
  // to 3 (the paper reports RAID groups spanning about 3 shelves).
  EXPECT_GT(total_span / static_cast<double>(groups), 2.0);
}

TEST(FleetBuild, DeterministicForSeed) {
  const auto a = model::Fleet::build(small_config(77));
  const auto b = model::Fleet::build(small_config(77));
  ASSERT_EQ(a.disks().size(), b.disks().size());
  ASSERT_EQ(a.shelves().size(), b.shelves().size());
  for (std::size_t i = 0; i < a.systems().size(); ++i) {
    EXPECT_EQ(a.systems()[i].disk_model, b.systems()[i].disk_model);
    EXPECT_EQ(a.systems()[i].paths, b.systems()[i].paths);
    EXPECT_DOUBLE_EQ(a.systems()[i].deploy_time, b.systems()[i].deploy_time);
  }
  const auto c = model::Fleet::build(small_config(78));
  bool any_difference = c.disks().size() != a.disks().size();
  for (std::size_t i = 0; !any_difference && i < a.systems().size(); ++i) {
    any_difference = a.systems()[i].deploy_time != c.systems()[i].deploy_time;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FleetBuild, DualPathFractionApproximatelyHonored) {
  auto config = small_config();
  config.cohorts[0].num_systems = 2000;
  const auto fleet = model::Fleet::build(config);
  std::size_t dual = 0;
  for (const auto& system : fleet.systems()) {
    if (system.paths == model::PathConfig::kDualPath) ++dual;
  }
  EXPECT_NEAR(static_cast<double>(dual) / 2000.0, 0.4, 0.04);
}

TEST(FleetReplace, ChainAndOccupancy) {
  auto fleet = model::Fleet::build(small_config());
  const auto& shelf = fleet.shelves()[0];
  const auto original = shelf.slots[0];
  ASSERT_TRUE(original.valid());
  const double t_remove = fleet.system(shelf.system).deploy_time + 1000.0;
  const double t_install = t_remove + 500.0;

  const auto fresh = fleet.replace_disk(original, t_remove, t_install);
  EXPECT_NE(fresh, original);
  EXPECT_EQ(fleet.disks().size(), fleet.initial_disk_count() + 1);

  const auto& old_rec = fleet.disk(original);
  const auto& new_rec = fleet.disk(fresh);
  EXPECT_DOUBLE_EQ(old_rec.remove_time, t_remove);
  EXPECT_DOUBLE_EQ(new_rec.install_time, t_install);
  EXPECT_EQ(new_rec.predecessor, original);
  EXPECT_EQ(new_rec.model, old_rec.model);
  EXPECT_EQ(new_rec.raid_group, old_rec.raid_group);
  EXPECT_EQ(fleet.disk_in({shelf.id, 0}), fresh);

  // occupant_at resolves history: before removal -> original; during the
  // repair gap -> none; after install -> replacement.
  EXPECT_EQ(fleet.occupant_at({shelf.id, 0}, t_remove - 1.0), original);
  EXPECT_FALSE(fleet.occupant_at({shelf.id, 0}, t_remove + 1.0).valid());
  EXPECT_EQ(fleet.occupant_at({shelf.id, 0}, t_install + 1.0), fresh);
  // Before the system deployed, the slot had no disk.
  EXPECT_FALSE(
      fleet.occupant_at({shelf.id, 0}, fleet.system(shelf.system).deploy_time - 1.0).valid());
}

TEST(FleetReplace, RejectsBadTimes) {
  auto fleet = model::Fleet::build(small_config());
  const auto disk = fleet.shelves()[0].slots[0];
  const double deploy = fleet.system(fleet.shelves()[0].system).deploy_time;
  EXPECT_THROW(fleet.replace_disk(disk, deploy - 10.0, deploy), std::invalid_argument);
  EXPECT_THROW(fleet.replace_disk(disk, deploy + 10.0, deploy + 5.0), std::invalid_argument);
  EXPECT_THROW(fleet.replace_disk(model::DiskId{}, 0.0, 0.0), std::out_of_range);
}

TEST(FleetExposure, ReplacementSplitsExposureExactly) {
  // Replacing a disk must conserve total exposure minus the repair gap.
  auto fleet = model::Fleet::build(small_config());
  const double before = fleet.total_disk_exposure_years();
  const auto& shelf = fleet.shelves()[0];
  const auto disk = shelf.slots[0];
  const double deploy = fleet.system(shelf.system).deploy_time;
  const double gap_seconds = 7200.0;
  fleet.replace_disk(disk, deploy + 1000.0, deploy + 1000.0 + gap_seconds);
  const double after = fleet.total_disk_exposure_years();
  EXPECT_NEAR(before - after, model::years(gap_seconds), 1e-9);
}

TEST(FleetExposure, ClippedToStudyWindow) {
  auto fleet = model::Fleet::build(small_config());
  // A replacement installed after the horizon contributes zero exposure.
  const auto& shelf = fleet.shelves()[0];
  const auto disk = shelf.slots[0];
  const double horizon = fleet.horizon_seconds();
  const auto fresh = fleet.replace_disk(disk, horizon - 10.0, horizon + 1000.0);
  EXPECT_DOUBLE_EQ(fleet.disk_exposure_years(fleet.disk(fresh)), 0.0);
}

TEST(FleetBuild, DeployTimesWithinWindow) {
  const auto config = small_config();
  const auto fleet = model::Fleet::build(config);
  for (const auto& system : fleet.systems()) {
    EXPECT_GE(system.deploy_time, 0.0);
    EXPECT_LE(system.deploy_time,
              config.deploy_window_fraction * config.horizon_seconds + 1e-9);
  }
}

TEST(FleetBuild, DeploySkewBackLoadsDeployments) {
  auto uniform_config = small_config(55);
  uniform_config.cohorts[0].num_systems = 2000;
  uniform_config.deploy_window_fraction = 1.0;
  auto skewed_config = uniform_config;
  skewed_config.deploy_skew = 3.0;

  auto mean_deploy = [](const model::Fleet& fleet) {
    double total = 0.0;
    for (const auto& s : fleet.systems()) total += s.deploy_time;
    return total / static_cast<double>(fleet.systems().size());
  };
  const auto uniform = model::Fleet::build(uniform_config);
  const auto skewed = model::Fleet::build(skewed_config);
  const double h = uniform_config.horizon_seconds;
  // E[u] = 1/2; E[u^(1/3)] = 3/4.
  EXPECT_NEAR(mean_deploy(uniform) / h, 0.5, 0.02);
  EXPECT_NEAR(mean_deploy(skewed) / h, 0.75, 0.02);
  // Back-loading shrinks exposure accordingly.
  EXPECT_LT(skewed.total_disk_exposure_years(), 0.6 * uniform.total_disk_exposure_years());
}

TEST(SerialFor, StableAndDistinct) {
  const auto s1 = model::serial_for(model::DiskId(1));
  const auto s2 = model::serial_for(model::DiskId(2));
  EXPECT_EQ(s1, model::serial_for(model::DiskId(1)));
  EXPECT_NE(s1, s2);
  EXPECT_EQ(s1.size(), 12u);
}
