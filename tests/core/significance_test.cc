// Cohort comparison statistics (rate tests, reductions, CIs).
#include "core/significance.h"

#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "model/time.h"

namespace core = storsubsim::core;
namespace log_ns = storsubsim::log;
namespace model = storsubsim::model;

namespace {

std::shared_ptr<log_ns::Inventory> cohort_inventory(std::size_t disks,
                                                    model::PathConfig paths) {
  auto inv = std::make_shared<log_ns::Inventory>();
  inv->horizon_seconds = model::from_years(1.0);
  log_ns::InventorySystem s;
  s.id = model::SystemId(0);
  s.cls = model::SystemClass::kHighEnd;
  s.paths = paths;
  s.disk_model = {'D', 2};
  s.shelf_model = {'B'};
  inv->systems = {s};
  inv->shelves = {{model::ShelfId(0), model::SystemId(0), {'B'}}};
  inv->raid_groups = {{model::RaidGroupId(0), model::SystemId(0), model::RaidType::kRaid4,
                       static_cast<std::uint32_t>(disks), 1}};
  for (std::uint32_t i = 0; i < disks; ++i) {
    log_ns::InventoryDisk d;
    d.id = model::DiskId(i);
    d.model = s.disk_model;
    d.system = model::SystemId(0);
    d.shelf = model::ShelfId(0);
    d.raid_group = model::RaidGroupId(0);
    d.slot = i;
    d.remove_time = std::numeric_limits<double>::infinity();
    inv->disks.push_back(d);
  }
  return inv;
}

core::Dataset with_pi_events(std::shared_ptr<log_ns::Inventory> inv, std::size_t n) {
  std::vector<core::FailureEvent> events;
  for (std::uint32_t i = 0; i < n; ++i) {
    events.push_back(core::FailureEvent{100.0 * (i + 1),
                                        model::DiskId(i % static_cast<std::uint32_t>(
                                                          inv->disks.size())),
                                        model::SystemId(0),
                                        model::FailureType::kPhysicalInterconnect});
  }
  return core::Dataset(std::move(inv), std::move(events));
}

/// compare_cohorts' rate test for `events_*` interconnect failures over
/// `disks_*` disk-years per cohort (one-year horizon).
storsubsim::stats::TTestResult rate_test(std::size_t events_a, std::size_t disks_a,
                                         std::size_t events_b, std::size_t disks_b) {
  return core::compare_cohorts(
             with_pi_events(cohort_inventory(disks_a, model::PathConfig::kSinglePath), events_a),
             "a",
             with_pi_events(cohort_inventory(disks_b, model::PathConfig::kDualPath), events_b),
             "b", model::FailureType::kPhysicalInterconnect, 0.95)
      .focus_test;
}

}  // namespace

TEST(RateComparison, ZeroDifference) {
  const auto r = rate_test(100, 50, 100, 50);
  EXPECT_NEAR(r.t_statistic, 0.0, 1e-12);
  EXPECT_FALSE(r.significant_at(0.9));
}

TEST(RateComparison, DetectsHalvedRate) {
  // 2000 events over 1000 years vs 1000 events over 1000 years.
  const auto r = rate_test(2000, 1000, 1000, 1000);
  EXPECT_TRUE(r.significant_at(0.999));
  EXPECT_NEAR(r.mean_a, 2.0, 1e-12);
  EXPECT_NEAR(r.mean_b, 1.0, 1e-12);
  // z = 1.0 / sqrt(2/1000 + 1/1000) = 18.26.
  EXPECT_NEAR(r.t_statistic, 18.257, 0.01);
}

TEST(RateComparison, SmallCountsNotSignificant) {
  const auto r = rate_test(3, 10, 2, 10);
  EXPECT_FALSE(r.significant_at(0.95));
}

TEST(RateComparison, RequiresPositiveExposure) {
  // A cohort without disks has no exposure.
  EXPECT_THROW(rate_test(0, 0, 1, 1), std::invalid_argument);
  EXPECT_THROW(rate_test(1, 1, 0, 0), std::invalid_argument);
}

TEST(CompareCohorts, ReductionsAndSignificance) {
  // Cohort A (single path): 200 PI events over 1000 disk-years -> 20%.
  // Cohort B (dual path): 100 PI events over 1000 disk-years -> 10%.
  auto ds_a = with_pi_events(cohort_inventory(1000, model::PathConfig::kSinglePath), 200);
  auto ds_b = with_pi_events(cohort_inventory(1000, model::PathConfig::kDualPath), 100);
  const auto cmp = core::compare_cohorts(ds_a, "single", ds_b, "dual",
                                         model::FailureType::kPhysicalInterconnect, 0.999);
  EXPECT_EQ(cmp.a.label, "single");
  EXPECT_EQ(cmp.b.label, "dual");
  EXPECT_NEAR(cmp.a.afr_pct(cmp.focus), 20.0, 1e-9);
  EXPECT_NEAR(cmp.b.afr_pct(cmp.focus), 10.0, 1e-9);
  EXPECT_NEAR(cmp.focus_reduction(), 0.5, 1e-9);
  EXPECT_NEAR(cmp.total_reduction(), 0.5, 1e-9);
  EXPECT_TRUE(cmp.significant_at(0.999));
  // CIs are in percent and bracket the point estimates.
  EXPECT_TRUE(cmp.focus_ci_a.contains(20.0));
  EXPECT_TRUE(cmp.focus_ci_b.contains(10.0));
  EXPECT_GT(cmp.focus_ci_a.lower, cmp.focus_ci_b.upper);
}

TEST(CompareCohorts, NoEventsNoSignificance) {
  auto ds_a = with_pi_events(cohort_inventory(100, model::PathConfig::kSinglePath), 0);
  auto ds_b = with_pi_events(cohort_inventory(100, model::PathConfig::kDualPath), 0);
  const auto cmp = core::compare_cohorts(ds_a, "a", ds_b, "b",
                                         model::FailureType::kPhysicalInterconnect, 0.995);
  EXPECT_DOUBLE_EQ(cmp.focus_reduction(), 0.0);
  EXPECT_FALSE(cmp.significant_at(0.995));
}
