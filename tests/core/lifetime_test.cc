// Disk lifetime extraction and the age-hazard chain on simulated fleets.
#include "core/lifetime.h"

#include <cmath>
#include <gtest/gtest.h>

#include "core/afr.h"
#include "core/pipeline.h"
#include "model/time.h"
#include "sim/scenario.h"

namespace core = storsubsim::core;
namespace model = storsubsim::model;
namespace sim = storsubsim::sim;

namespace {

model::CohortSpec cohort() {
  model::CohortSpec c;
  c.label = "life";
  c.cls = model::SystemClass::kNearLine;
  c.shelf_model = {'C'};
  c.disk_mix = {{{'J', 1}, 1.0}};
  c.num_systems = 800;
  c.mean_shelves_per_system = 5.0;
  c.mean_disks_per_shelf = 14.0;
  c.raid_group_size = 8;
  c.raid_span_shelves = 3;
  return c;
}

}  // namespace

TEST(Lifetime, ObservationAccounting) {
  auto fs = sim::simulate_fleet(sim::cohort_fleet(cohort(), 1.0, 8));
  const auto ds = core::dataset_in_memory(fs.fleet, fs.result);
  const auto observations = core::disk_lifetime_observations(ds);

  // One observation per disk record with in-window exposure.
  EXPECT_LE(observations.size(), ds.inventory().disks.size());
  EXPECT_GT(observations.size(), fs.fleet.initial_disk_count() * 9 / 10);

  // Events = disk failures whose removal happened in-window.
  std::size_t events = 0;
  double total_exposure = 0.0;
  for (const auto& o : observations) {
    EXPECT_GT(o.duration, 0.0);
    EXPECT_LE(o.duration, fs.fleet.horizon_seconds() + 1.0);
    if (o.event) ++events;
    total_exposure += o.duration;
  }
  const core::AfrBreakdown afr = core::compute_afr(ds);
  const std::size_t disk_failures = afr.events[model::index_of(model::FailureType::kDisk)];
  EXPECT_LE(events, disk_failures);
  EXPECT_GE(events, disk_failures * 9 / 10);
  // Total exposure equals the dataset's disk-years (same clipping rules).
  EXPECT_NEAR(model::years(total_exposure), afr.disk_years, 0.01 * afr.disk_years);
}

TEST(Lifetime, ReportHeavilyCensoredWithFlatHazard) {
  auto fs = sim::simulate_fleet(sim::cohort_fleet(cohort(), 1.0, 9));
  const auto ds = core::dataset_in_memory(fs.fleet, fs.result);
  const auto report = core::disk_lifetime_report(ds);

  // SATA AFR ~2%/yr over <= 3.7 years: the vast majority of disks survive.
  EXPECT_GT(report.censored_fraction, 0.9);
  EXPECT_EQ(report.failures, report.survival.total_events());
  // Survival at 1 year ~ exp(-0.02) ~ 0.98.
  EXPECT_NEAR(report.survival.survival(model::kSecondsPerYear), 0.98, 0.01);
  EXPECT_TRUE(std::isinf(report.survival.median()));

  // Default hazard model is age-homogeneous: per-bin rates agree within
  // noise (compare the 90-180d bin against the 1-2y bin).
  ASSERT_GE(report.hazard_by_age.size(), 6u);
  const double early = report.hazard_by_age[3].rate();  // 180-365 d
  const double late = report.hazard_by_age[5].rate();   // 730-1340 d
  ASSERT_GT(early, 0.0);
  EXPECT_NEAR(late / early, 1.0, 0.35);
}

TEST(Lifetime, InfantMortalityShowsUpInEarlyBins) {
  auto params = sim::SimParams::standard();
  params.infant_multiplier = 15.0;
  params.infant_period_seconds = 30.0 * model::kSecondsPerDay;
  auto fs = sim::simulate_fleet(sim::cohort_fleet(cohort(), 1.0, 10), params);
  const auto ds = core::dataset_in_memory(fs.fleet, fs.result);
  const auto report = core::disk_lifetime_report(ds);

  const double infant = report.hazard_by_age[0].rate();  // 0-30 d
  const double mature = report.hazard_by_age[4].rate();  // 365-730 d
  ASSERT_GT(mature, 0.0);
  EXPECT_GT(infant, 5.0 * mature);
}

TEST(Lifetime, CustomAgeEdges) {
  auto fs = sim::simulate_fleet(sim::cohort_fleet(cohort(), 0.2, 11));
  const auto ds = core::dataset_in_memory(fs.fleet, fs.result);
  const auto report = core::disk_lifetime_report(ds, {0.0, 365.0, 1340.0});
  ASSERT_EQ(report.hazard_by_age.size(), 2u);
  EXPECT_DOUBLE_EQ(report.hazard_by_age[0].age_lo, 0.0);
  EXPECT_NEAR(report.hazard_by_age[1].age_hi, 1340.0 * model::kSecondsPerDay, 1.0);
}
