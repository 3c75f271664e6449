// RAID recovery replay: state-machine correctness on hand-built failure
// streams and policy effects on the simulated fleet.
#include "sim/raid_recovery.h"

#include <gtest/gtest.h>

#include "sim/scenario.h"

namespace sim = storsubsim::sim;
namespace model = storsubsim::model;

namespace {

constexpr double kHour = 3600.0;
constexpr double kDay = 86400.0;

/// One system, two shelves, one RAID4 group of 6 spanning both.
struct Rig {
  model::Fleet fleet;
  sim::SimResult result;

  explicit Rig(double raid6_fraction = 0.0) : fleet(build_fleet(raid6_fraction)) {}

  static model::Fleet build_fleet(double raid6_fraction) {
    model::CohortSpec c;
    c.label = "rig";
    c.cls = model::SystemClass::kMidRange;
    c.shelf_model = {'B'};
    c.disk_mix = {{{'D', 2}, 1.0}};
    c.num_systems = 1;
    c.mean_shelves_per_system = 2.0;
    c.mean_disks_per_shelf = 3.0;
    c.raid_group_size = 6;
    c.raid_span_shelves = 2;
    c.raid6_fraction = raid6_fraction;
    model::FleetConfig config;
    config.cohorts = {c};
    config.horizon_seconds = model::from_years(2.0);
    config.seed = 12345;
    return model::Fleet::build(config);
  }

  double deploy() const { return fleet.systems()[0].deploy_time; }

  /// Adds a failure on the group's n-th member.
  void add(double offset_seconds, std::size_t member,
           model::FailureType type = model::FailureType::kDisk) {
    const auto& group = fleet.raid_groups()[0];
    const auto disk = fleet.disk_in(group.members[member]);
    const double occur = deploy() + offset_seconds;
    result.failures.push_back(sim::SimFailure{occur, occur + 60.0, disk,
                                              fleet.systems()[0].id, type});
    ++result.counters.events_by_type[model::index_of(type)];
  }
};

sim::RecoveryPolicy fast_policy() {
  sim::RecoveryPolicy p;
  p.rebuild_hours = 12.0;
  p.hot_spares_per_system = 2;
  p.spare_replenish_days = 3.0;
  p.transient_outage_hours = 1.0;
  return p;
}

}  // namespace

TEST(RaidRecovery, SingleFailureNoLoss) {
  Rig rig;
  rig.add(10.0 * kDay, 0);
  const auto r = sim::replay_raid_recovery(rig.fleet, rig.result, fast_policy());
  EXPECT_EQ(r.data_loss_events_raid4, 0u);
  EXPECT_EQ(r.rebuilds_total, 1u);
  EXPECT_EQ(r.rebuilds_stalled_on_spares, 0u);
  // Unavailable from occurrence to detect(+60 s) + 12 h rebuild.
  EXPECT_NEAR(r.degraded_group_hours, 12.0 + 60.0 / 3600.0 + 60.0 / 3600.0, 0.2);
  EXPECT_NEAR(r.zero_redundancy_hours, r.degraded_group_hours, 1e-9);  // RAID4
}

TEST(RaidRecovery, TwoOverlappingDiskFailuresLoseData) {
  Rig rig;
  rig.add(10.0 * kDay, 0);
  rig.add(10.0 * kDay + 2.0 * kHour, 1);  // inside the first rebuild
  const auto r = sim::replay_raid_recovery(rig.fleet, rig.result, fast_policy());
  EXPECT_EQ(r.data_loss_events_raid4, 1u);
}

TEST(RaidRecovery, SequentialFailuresSurvive) {
  Rig rig;
  rig.add(10.0 * kDay, 0);
  rig.add(12.0 * kDay, 1);  // first rebuild (12 h) finished long ago
  const auto r = sim::replay_raid_recovery(rig.fleet, rig.result, fast_policy());
  EXPECT_EQ(r.data_loss_events_raid4, 0u);
  EXPECT_EQ(r.rebuilds_total, 2u);
}

TEST(RaidRecovery, SameMemberDoesNotDoubleCount) {
  Rig rig;
  rig.add(10.0 * kDay, 0, model::FailureType::kPhysicalInterconnect);
  rig.add(10.0 * kDay + 600.0, 0, model::FailureType::kPhysicalInterconnect);
  const auto r = sim::replay_raid_recovery(rig.fleet, rig.result, fast_policy());
  // Two overlapping outages of the SAME member: depth stays 1 -> no loss.
  EXPECT_EQ(r.data_loss_events_raid4, 0u);
}

TEST(RaidRecovery, TransientConcurrencyCountsWhenEnabled) {
  Rig rig;
  rig.add(10.0 * kDay, 0, model::FailureType::kPhysicalInterconnect);
  rig.add(10.0 * kDay + 600.0, 1, model::FailureType::kPhysicalInterconnect);

  auto policy = fast_policy();
  const auto with = sim::replay_raid_recovery(rig.fleet, rig.result, policy);
  EXPECT_EQ(with.data_loss_events_raid4, 1u);

  policy.count_transient_failures = false;
  const auto without = sim::replay_raid_recovery(rig.fleet, rig.result, policy);
  EXPECT_EQ(without.data_loss_events_raid4, 0u);
  EXPECT_DOUBLE_EQ(without.degraded_group_hours, 0.0);
}

TEST(RaidRecovery, Raid6ToleratesTwoNeedsThree) {
  Rig rig(/*raid6_fraction=*/1.0);
  rig.add(10.0 * kDay, 0);
  rig.add(10.0 * kDay + kHour, 1);
  const auto two = sim::replay_raid_recovery(rig.fleet, rig.result, fast_policy());
  EXPECT_EQ(two.data_loss_events_raid6, 0u);
  EXPECT_GT(two.zero_redundancy_hours, 0.0);
  EXPECT_LT(two.zero_redundancy_hours, two.degraded_group_hours);

  rig.add(10.0 * kDay + 2.0 * kHour, 2);
  const auto three = sim::replay_raid_recovery(rig.fleet, rig.result, fast_policy());
  EXPECT_EQ(three.data_loss_events_raid6, 1u);
}

TEST(RaidRecovery, SparePoolExhaustionStallsRebuilds) {
  Rig rig;
  auto policy = fast_policy();
  policy.hot_spares_per_system = 1;
  policy.spare_replenish_days = 30.0;
  // Two disk failures a day apart: the second must wait ~29 days for the
  // restocked spare, leaving the group exposed.
  rig.add(10.0 * kDay, 0);
  rig.add(11.0 * kDay, 1);
  const auto r = sim::replay_raid_recovery(rig.fleet, rig.result, policy);
  EXPECT_EQ(r.rebuilds_stalled_on_spares, 1u);
  // Overlap: member 1 down from day 11 until ~day 40; member 0 down only
  // until day 10.5 -> no loss, but long zero-redundancy exposure.
  EXPECT_EQ(r.data_loss_events_raid4, 0u);
  EXPECT_GT(r.zero_redundancy_hours, 24.0 * 25.0);
}

TEST(RaidRecovery, ZeroSparesAlwaysWaitForReplenish) {
  Rig rig;
  auto policy = fast_policy();
  policy.hot_spares_per_system = 0;
  policy.spare_replenish_days = 2.0;
  rig.add(10.0 * kDay, 0);
  const auto r = sim::replay_raid_recovery(rig.fleet, rig.result, policy);
  EXPECT_EQ(r.rebuilds_stalled_on_spares, 1u);
  // Down for ~2 days waiting + 12 h rebuild.
  EXPECT_NEAR(r.degraded_group_hours, 2.0 * 24.0 + 12.0, 0.5);
}

TEST(RaidRecovery, EmptyHistory) {
  Rig rig;
  const auto r = sim::replay_raid_recovery(rig.fleet, rig.result, fast_policy());
  EXPECT_EQ(r.data_loss_events_raid4 + r.data_loss_events_raid6, 0u);
  EXPECT_DOUBLE_EQ(r.degraded_group_hours, 0.0);
  EXPECT_GT(r.group_years, 0.0);
  EXPECT_EQ(r.groups, rig.fleet.raid_groups().size());
}

TEST(RaidRecovery, FleetPolicyOrdering) {
  // On a simulated cohort: RAID6 loses (much) less data than RAID4; faster
  // rebuilds and more spares reduce losses and degraded time.
  model::CohortSpec c;
  c.label = "policy";
  c.cls = model::SystemClass::kMidRange;
  c.shelf_model = {'B'};
  c.disk_mix = {{{'D', 2}, 1.0}};
  c.num_systems = 1500;
  c.mean_shelves_per_system = 6.0;
  c.mean_disks_per_shelf = 12.0;
  c.raid_group_size = 8;
  c.raid_span_shelves = 3;
  c.raid6_fraction = 0.5;
  auto fs = sim::simulate_fleet(sim::cohort_fleet(c, 1.0, 31));

  auto base = fast_policy();
  const auto r = sim::replay_raid_recovery(fs.fleet, fs.result, base);
  ASSERT_GT(r.data_loss_events_raid4, 10u);
  // RAID4 and RAID6 groups are ~equal in number; RAID6 must lose far less.
  EXPECT_LT(static_cast<double>(r.data_loss_events_raid6),
            0.5 * static_cast<double>(r.data_loss_events_raid4));

  auto slow = base;
  slow.rebuild_hours = 96.0;
  const auto r_slow = sim::replay_raid_recovery(fs.fleet, fs.result, slow);
  EXPECT_GT(r_slow.data_loss_events_raid4, r.data_loss_events_raid4);
  EXPECT_GT(r_slow.degraded_group_hours, r.degraded_group_hours);

  auto starved = base;
  starved.hot_spares_per_system = 0;
  starved.spare_replenish_days = 7.0;
  const auto r_starved = sim::replay_raid_recovery(fs.fleet, fs.result, starved);
  EXPECT_GT(r_starved.data_loss_events_raid4, r.data_loss_events_raid4);
  EXPECT_EQ(r_starved.rebuilds_stalled_on_spares, r_starved.rebuilds_total);
}
