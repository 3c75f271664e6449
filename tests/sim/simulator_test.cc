// Simulator behavior: rate calibration, determinism, replacement
// consistency, detection lag, multipath masking, and clustering mechanics.
#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "model/time.h"
#include "sim/scenario.h"
#include "util/parallel.h"

namespace sim = storsubsim::sim;
namespace model = storsubsim::model;

namespace {

model::CohortSpec plain_cohort(model::SystemClass cls, char shelf, model::DiskModelName disk,
                               std::size_t systems) {
  model::CohortSpec c;
  c.label = "t";
  c.cls = cls;
  c.shelf_model = {shelf};
  c.disk_mix = {{disk, 1.0}};
  c.num_systems = systems;
  c.mean_shelves_per_system = 4.0;
  c.mean_disks_per_shelf = 11.0;
  c.raid_group_size = 8;
  c.raid_span_shelves = 3;
  return c;
}

/// Parameters with all correlation mechanisms off: pure homogeneous rates,
/// ideal for rate-calibration checks.
sim::SimParams plain_params() {
  sim::MechanismToggles off;
  off.shelf_badness = false;
  off.hawkes = false;
  off.environment_windows = false;
  off.interconnect_clusters = false;
  off.driver_windows = false;
  off.congestion_windows = false;
  return sim::apply_toggles(sim::SimParams::standard(), off);
}

double exposure_years(const model::Fleet& fleet) { return fleet.total_disk_exposure_years(); }

double afr_pct(const model::Fleet& fleet, const sim::SimResult& result,
               model::FailureType type) {
  return 100.0 * static_cast<double>(result.counters.events_by_type[model::index_of(type)]) /
         exposure_years(fleet);
}

}  // namespace

TEST(Simulator, DiskFailureRateMatchesCalibration) {
  const auto config = sim::cohort_fleet(
      plain_cohort(model::SystemClass::kMidRange, 'B', {'D', 2}, 4000), 1.0, 21);
  auto fs = sim::simulate_fleet(config, plain_params());
  // Disk D-2 is calibrated at 0.85% per disk-year.
  EXPECT_NEAR(afr_pct(fs.fleet, fs.result, model::FailureType::kDisk), 0.85, 0.06);
}

TEST(Simulator, SataDiskRateHigherThanFc) {
  const auto params = plain_params();
  auto nearline = sim::simulate_fleet(
      sim::cohort_fleet(plain_cohort(model::SystemClass::kNearLine, 'C', {'J', 1}, 2000), 1.0,
                        22),
      params);
  auto lowend = sim::simulate_fleet(
      sim::cohort_fleet(plain_cohort(model::SystemClass::kLowEnd, 'A', {'A', 2}, 2000), 1.0,
                        23),
      params);
  const double sata = afr_pct(nearline.fleet, nearline.result, model::FailureType::kDisk);
  const double fc = afr_pct(lowend.fleet, lowend.result, model::FailureType::kDisk);
  EXPECT_GT(sata, 1.5);
  EXPECT_LT(fc, 1.1);
}

TEST(Simulator, InterconnectRateMatchesShelfQuirkAndClass) {
  // Low-end shelf A with disk A-2: 2.20 * 1.21 * 1.08 = 2.87% per disk-year.
  const auto config = sim::cohort_fleet(
      plain_cohort(model::SystemClass::kLowEnd, 'A', {'A', 2}, 3000), 1.0, 24);
  auto fs = sim::simulate_fleet(config, plain_params());
  EXPECT_NEAR(afr_pct(fs.fleet, fs.result, model::FailureType::kPhysicalInterconnect),
              2.20 * 1.21 * 1.08, 0.18);
}

TEST(Simulator, ProblematicFamilyElevatesProtocolAndPerformance) {
  const auto params = plain_params();
  auto good = sim::simulate_fleet(
      sim::cohort_fleet(plain_cohort(model::SystemClass::kHighEnd, 'B', {'D', 2}, 2500), 1.0,
                        25),
      params);
  auto bad = sim::simulate_fleet(
      sim::cohort_fleet(plain_cohort(model::SystemClass::kHighEnd, 'B', {'H', 2}, 2500), 1.0,
                        26),
      params);
  // Finding 3's cross-coupling: protocol and performance rates rise with the
  // problematic family, not just the disk rate.
  EXPECT_GT(afr_pct(bad.fleet, bad.result, model::FailureType::kDisk),
            2.0 * afr_pct(good.fleet, good.result, model::FailureType::kDisk));
  EXPECT_GT(afr_pct(bad.fleet, bad.result, model::FailureType::kProtocol),
            1.8 * afr_pct(good.fleet, good.result, model::FailureType::kProtocol));
  EXPECT_GT(afr_pct(bad.fleet, bad.result, model::FailureType::kPerformance),
            1.8 * afr_pct(good.fleet, good.result, model::FailureType::kPerformance));
}

TEST(Simulator, DualPathMasksHalfOfInterconnect) {
  auto cohort = plain_cohort(model::SystemClass::kHighEnd, 'B', {'D', 2}, 5000);
  cohort.dual_path_fraction = 0.5;
  auto fs = sim::simulate_fleet(sim::cohort_fleet(cohort, 1.0, 27), plain_params());

  std::map<model::PathConfig, double> exposure;
  std::map<model::PathConfig, std::size_t> events;
  for (const auto& d : fs.fleet.disks()) {
    exposure[fs.fleet.system(d.system).paths] += model::exposure_years(
        d.install_time, d.remove_time, fs.fleet.horizon_seconds());
  }
  for (const auto& f : fs.result.failures) {
    if (f.type == model::FailureType::kPhysicalInterconnect) {
      ++events[fs.fleet.system(f.system).paths];
    }
  }
  const double single = 100.0 * static_cast<double>(events[model::PathConfig::kSinglePath]) /
                        exposure[model::PathConfig::kSinglePath];
  const double dual = 100.0 * static_cast<double>(events[model::PathConfig::kDualPath]) /
                      exposure[model::PathConfig::kDualPath];
  // Masking 2/3 of the non-backplane 75%: dual ~ 0.5 x single (Figure 7).
  EXPECT_NEAR(dual / single, 0.5, 0.07);
  EXPECT_GT(fs.result.counters.masked_path_faults, 0u);
}

TEST(Simulator, DeterministicForSeedAndParams) {
  const auto config = sim::cohort_fleet(
      plain_cohort(model::SystemClass::kMidRange, 'B', {'C', 2}, 200), 1.0, 31);
  auto a = sim::simulate_fleet(config, sim::SimParams::standard());
  auto b = sim::simulate_fleet(config, sim::SimParams::standard());
  ASSERT_EQ(a.result.failures.size(), b.result.failures.size());
  for (std::size_t i = 0; i < a.result.failures.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.result.failures[i].detect_time, b.result.failures[i].detect_time);
    EXPECT_EQ(a.result.failures[i].disk, b.result.failures[i].disk);
    EXPECT_EQ(a.result.failures[i].type, b.result.failures[i].type);
  }
}

TEST(Simulator, BitIdenticalAcrossThreadCounts) {
  // The determinism contract: shelves/systems draw from named RNG
  // substreams and replacements are replayed serially, so the parallel run
  // reproduces the serial run exactly — failures, counters, and fleet-wide
  // disk ids.
  const auto config = sim::cohort_fleet(
      plain_cohort(model::SystemClass::kMidRange, 'B', {'C', 2}, 300), 1.0, 38);
  storsubsim::util::set_thread_count(1);
  auto serial = sim::simulate_fleet(config, sim::SimParams::standard());
  storsubsim::util::set_thread_count(4);
  auto parallel = sim::simulate_fleet(config, sim::SimParams::standard());
  storsubsim::util::set_thread_count(0);

  ASSERT_EQ(serial.result.failures.size(), parallel.result.failures.size());
  for (std::size_t i = 0; i < serial.result.failures.size(); ++i) {
    const auto& a = serial.result.failures[i];
    const auto& b = parallel.result.failures[i];
    EXPECT_DOUBLE_EQ(a.occur_time, b.occur_time);
    EXPECT_DOUBLE_EQ(a.detect_time, b.detect_time);
    EXPECT_EQ(a.disk, b.disk);
    EXPECT_EQ(a.system, b.system);
    EXPECT_EQ(a.type, b.type);
  }
  EXPECT_EQ(serial.result.counters.events_by_type, parallel.result.counters.events_by_type);
  EXPECT_EQ(serial.result.counters.replacements, parallel.result.counters.replacements);
  EXPECT_EQ(serial.result.counters.triggered_disk_failures,
            parallel.result.counters.triggered_disk_failures);
  EXPECT_EQ(serial.result.counters.shelf_faults, parallel.result.counters.shelf_faults);
  EXPECT_EQ(serial.result.counters.path_faults, parallel.result.counters.path_faults);
  EXPECT_EQ(serial.result.counters.masked_path_faults,
            parallel.result.counters.masked_path_faults);
  // Replacement replay must assign identical fleet-wide disk ids.
  ASSERT_EQ(serial.fleet.disks().size(), parallel.fleet.disks().size());
  for (std::size_t i = 0; i < serial.fleet.disks().size(); ++i) {
    EXPECT_EQ(serial.fleet.disks()[i].id, parallel.fleet.disks()[i].id);
    EXPECT_DOUBLE_EQ(serial.fleet.disks()[i].install_time,
                     parallel.fleet.disks()[i].install_time);
    EXPECT_DOUBLE_EQ(serial.fleet.disks()[i].remove_time,
                     parallel.fleet.disks()[i].remove_time);
  }
}

TEST(Simulator, EventsSortedAndWithinWindows) {
  const auto config = sim::cohort_fleet(
      plain_cohort(model::SystemClass::kMidRange, 'B', {'C', 2}, 400), 1.0, 32);
  auto fs = sim::simulate_fleet(config, sim::SimParams::standard());
  const double horizon = fs.fleet.horizon_seconds();
  double prev = -1.0;
  for (const auto& f : fs.result.failures) {
    EXPECT_GE(f.detect_time, prev);
    prev = f.detect_time;
    EXPECT_GE(f.occur_time, 0.0);
    EXPECT_LT(f.occur_time, horizon);
    // Detection lags occurrence by at most one scrub period (paper §2.5).
    EXPECT_GT(f.detect_time, f.occur_time);
    EXPECT_LE(f.detect_time - f.occur_time, model::kScrubPeriodSeconds);
    // The failed disk was installed when the failure occurred.
    const auto& disk = fs.fleet.disk(f.disk);
    EXPECT_TRUE(disk.installed_at(f.occur_time))
        << "disk " << f.disk.value() << " at t=" << f.occur_time;
    // Occurrence after the owning system deployed.
    EXPECT_GE(f.occur_time, fs.fleet.system(f.system).deploy_time);
  }
}

TEST(Simulator, EveryDiskFailureCausesReplacement) {
  const auto config = sim::cohort_fleet(
      plain_cohort(model::SystemClass::kNearLine, 'C', {'I', 1}, 400), 1.0, 33);
  auto fs = sim::simulate_fleet(config, sim::SimParams::standard());
  const auto disk_failures =
      fs.result.counters.events_by_type[model::index_of(model::FailureType::kDisk)];
  EXPECT_EQ(fs.result.counters.replacements, disk_failures);
  EXPECT_EQ(fs.fleet.disks().size(), fs.fleet.initial_disk_count() + disk_failures);
  // A failed (replaced) disk record's removal matches its failure detection.
  for (const auto& f : fs.result.failures) {
    if (f.type != model::FailureType::kDisk) continue;
    EXPECT_DOUBLE_EQ(fs.fleet.disk(f.disk).remove_time, f.detect_time);
  }
}

TEST(Simulator, InterconnectFaultsComeInClusters) {
  const auto config = sim::cohort_fleet(
      plain_cohort(model::SystemClass::kHighEnd, 'B', {'D', 2}, 2000), 1.0, 34);
  auto fs = sim::simulate_fleet(config, sim::SimParams::standard());
  // Group PI events by occurrence time: cluster faults share the fault time.
  std::map<double, int> by_occurrence;
  for (const auto& f : fs.result.failures) {
    if (f.type == model::FailureType::kPhysicalInterconnect) ++by_occurrence[f.occur_time];
  }
  std::size_t clustered = 0, total = 0;
  for (const auto& [t, n] : by_occurrence) {
    total += static_cast<std::size_t>(n);
    if (n >= 2) clustered += static_cast<std::size_t>(n);
  }
  ASSERT_GT(total, 100u);
  EXPECT_GT(static_cast<double>(clustered) / static_cast<double>(total), 0.3);
}

TEST(Simulator, RunIsSingleShot) {
  const auto config = sim::cohort_fleet(
      plain_cohort(model::SystemClass::kLowEnd, 'A', {'A', 2}, 10), 1.0, 35);
  auto fleet = model::Fleet::build(config);
  sim::Simulator simulator(fleet, sim::SimParams::standard());
  (void)simulator.run();
  EXPECT_THROW(simulator.run(), std::logic_error);
}

TEST(Simulator, HawkesTriggersCounted) {
  auto params = plain_params();
  params.hawkes_branching = 0.2;  // exaggerate for the test
  const auto config = sim::cohort_fleet(
      plain_cohort(model::SystemClass::kNearLine, 'C', {'J', 1}, 2000), 1.0, 36);
  auto fs = sim::simulate_fleet(config, params);
  const auto disk_failures =
      fs.result.counters.events_by_type[model::index_of(model::FailureType::kDisk)];
  EXPECT_GT(fs.result.counters.triggered_disk_failures, disk_failures / 10);
  EXPECT_LT(fs.result.counters.triggered_disk_failures, disk_failures / 3);
}

TEST(Simulator, InfantMortalityRaisesEarlyFailures) {
  auto params = plain_params();
  params.infant_multiplier = 20.0;
  params.infant_period_seconds = 30.0 * model::kSecondsPerDay;
  const auto config = sim::cohort_fleet(
      plain_cohort(model::SystemClass::kMidRange, 'B', {'D', 2}, 1500), 1.0, 37);
  auto fs = sim::simulate_fleet(config, params);
  std::size_t early = 0, late = 0;
  for (const auto& f : fs.result.failures) {
    if (f.type != model::FailureType::kDisk) continue;
    const auto& disk = fs.fleet.disk(f.disk);
    const double age = f.occur_time - disk.install_time;
    (age < params.infant_period_seconds ? early : late) += 1;
  }
  // Early period is ~30d of a ~1000d mean life, but boosted 20x: expect
  // early failures to rival late ones instead of being ~3% of them.
  EXPECT_GT(early, late / 3);
}
