// Analytic RAID model: closed-form values, scaling laws, comparison against
// a direct Monte-Carlo of the independent-exponential assumption, and the
// headline contrast with the correlated simulation.
#include "core/raid_model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/raid_vulnerability.h"
#include "model/fleet_config.h"
#include "stats/distributions.h"
#include "stats/rng.h"

namespace core = storsubsim::core;

namespace {

/// MTTDL in hours, recovered from the one-year defeat probability
/// P = 1 - exp(-8766 h / MTTDL).
double mttdl_single_parity_hours(const core::RaidGroupModel& m) {
  return -8766.0 / std::log1p(-core::defeat_probability_single_parity(m, 1.0));
}

double mttdl_double_parity_hours(const core::RaidGroupModel& m) {
  return -8766.0 / std::log1p(-core::defeat_probability_double_parity(m, 1.0));
}

}  // namespace

TEST(RaidModel, ClosedFormValues) {
  // n=8, AFR ~ 0.876% => lambda = 1e-6/h exactly; repair 24 h.
  core::RaidGroupModel m;
  m.disks = 8;
  m.disk_afr_fraction = 1.0 - std::exp(-1e-6 * 8766.0);
  m.repair_hours = 24.0;
  // MTTDL_1 = mu / (n(n-1) lambda^2) = (1/24) / (56 * 1e-12).
  EXPECT_NEAR(mttdl_single_parity_hours(m), (1.0 / 24.0) / (56.0 * 1e-12), 1e3);
  // MTTDL_2 = mu^2 / (n(n-1)(n-2) lambda^3).
  EXPECT_NEAR(mttdl_double_parity_hours(m),
              (1.0 / 576.0) / (336.0 * 1e-18), 1e7);
  // Double parity buys a factor of mu / ((n-2) lambda) ~ 6.9e3 here.
  EXPECT_NEAR(mttdl_double_parity_hours(m) / mttdl_single_parity_hours(m),
              (1.0 / 24.0) / (6.0 * 1e-6), 10.0);
}

TEST(RaidModel, ScalingLaws) {
  core::RaidGroupModel base;
  base.disks = 8;
  base.disk_afr_fraction = 0.01;
  base.repair_hours = 24.0;

  // Halving the repair time doubles single-parity MTTDL.
  auto fast = base;
  fast.repair_hours = 12.0;
  EXPECT_NEAR(mttdl_single_parity_hours(fast),
              2.0 * mttdl_single_parity_hours(base), 1.0);

  // Doubling lambda quarters single-parity MTTDL (lambda^2 law).
  auto frail = base;
  frail.disk_afr_fraction = 1.0 - std::pow(1.0 - base.disk_afr_fraction, 2.0);
  EXPECT_NEAR(mttdl_single_parity_hours(frail),
              0.25 * mttdl_single_parity_hours(base),
              0.01 * mttdl_single_parity_hours(base));
}

TEST(RaidModel, RejectsBadParameters) {
  core::RaidGroupModel m;
  m.disks = 1;
  EXPECT_THROW(mttdl_single_parity_hours(m), std::invalid_argument);
  m.disks = 2;
  EXPECT_THROW(mttdl_double_parity_hours(m), std::invalid_argument);
  m.disks = 8;
  m.disk_afr_fraction = 0.0;
  EXPECT_THROW(mttdl_single_parity_hours(m), std::invalid_argument);
  m.disk_afr_fraction = 0.01;
  m.repair_hours = 0.0;
  EXPECT_THROW(mttdl_single_parity_hours(m), std::invalid_argument);
}

TEST(RaidModel, MatchesMonteCarloUnderItsOwnAssumptions) {
  // Under independent exponential failures with 24 h repairs, the defeat
  // probability over 3 years should match a direct Monte-Carlo within noise.
  core::RaidGroupModel m;
  m.disks = 8;
  m.disk_afr_fraction = 0.05;  // exaggerated so the MC sees events
  m.repair_hours = 240.0;      // slow repair, same reason
  const double years = 3.0;
  const double predicted = core::defeat_probability_single_parity(m, years);

  storsubsim::stats::Rng rng(2718);
  const double lambda = -std::log(1.0 - m.disk_afr_fraction) / 8766.0;  // per hour
  const double horizon = years * 8766.0;
  const int trials = 20000;
  int defeated = 0;
  for (int t = 0; t < trials; ++t) {
    // Each disk fails as a Poisson process (failed disks are replaced after
    // repair_hours; approximate by keeping rate n*lambda and checking
    // whether a second failure lands within the repair window).
    double now = 0.0;
    bool dead = false;
    while (!dead) {
      const double gap =
          -std::log(rng.uniform_pos()) / (static_cast<double>(m.disks) * lambda);
      now += gap;
      if (now >= horizon) break;
      // One disk down; a second failure among the other n-1 within the
      // repair window defeats the group.
      const double second =
          -std::log(rng.uniform_pos()) / (static_cast<double>(m.disks - 1) * lambda);
      if (second < m.repair_hours) {
        dead = true;
      } else {
        now += m.repair_hours;  // rebuilt; continue
      }
    }
    if (dead) ++defeated;
  }
  const double measured = static_cast<double>(defeated) / trials;
  EXPECT_NEAR(measured, predicted, 0.15 * predicted + 0.01);
}

TEST(RaidModel, CorrelatedRealityBeatsTheModel) {
  // The point of the module: the classical model under-predicts defeats on
  // the correlated fleet even when fed the fleet's own measured rates.
  const auto sd = core::simulate_and_analyze(
      storsubsim::model::standard_fleet_config(0.1, 20080226),
      storsubsim::sim::SimParams::standard(), false);
  const auto& ds = sd.dataset;

  // Feed the model the measured whole-subsystem failure rate per disk.
  const double events_per_disk_year =
      static_cast<double>(ds.events().size()) / ds.disk_exposure_years();
  core::RaidGroupModel m;
  m.disks = 8;
  m.disk_afr_fraction = 1.0 - std::exp(-events_per_disk_year);
  m.repair_hours = 24.0;

  const double group_years = ds.raid_group_exposure_years();
  const double predicted_defeats =
      core::defeat_probability_single_parity(m, 1.0) * group_years;

  const auto measured = core::raid_vulnerability(ds, 24.0 * 3600.0, false);
  EXPECT_GT(static_cast<double>(measured.double_failure_incidents),
            3.0 * predicted_defeats);
}
