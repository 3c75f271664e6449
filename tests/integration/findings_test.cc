// Integration: the paper's eleven findings, verified qualitatively on a
// moderately-scaled simulated fleet through the full analysis stack.
//
// These tests assert the *shape* of each finding (who is higher, roughly by
// what factor, which orderings hold) rather than exact figures; the bench
// harnesses print the quantitative side-by-side with the paper's values.
#include <algorithm>

#include <gtest/gtest.h>

#include "core/afr.h"
#include "core/burstiness.h"
#include "core/correlation.h"
#include "core/distribution_fit.h"
#include "core/pipeline.h"
#include "core/significance.h"
#include "model/fleet_config.h"
#include "sim/scenario.h"

namespace core = storsubsim::core;
namespace model = storsubsim::model;
namespace sim = storsubsim::sim;

using model::FailureType;

namespace {

/// One shared simulation for the whole suite (expensive-ish to build).
const core::SimulationDataset& fleet_dataset() {
  static const core::SimulationDataset sd = core::simulate_and_analyze(
      model::standard_fleet_config(0.2, 20080226), sim::SimParams::standard(),
      /*through_text_logs=*/false);
  return sd;
}

core::Source without_family_h(const core::Dataset& ds) {
  core::Filter f;
  f.exclude_family_h = true;
  return core::Source(ds, f);
}

}  // namespace

TEST(Finding1, DiskFailuresAreNotDominant) {
  // Disk failures contribute 20-55% of subsystem failures; physical
  // interconnects 27-68%; protocol and performance each a noticeable slice.
  const auto ds = without_family_h(fleet_dataset().dataset);
  for (const auto& b : core::afr_by_class(ds)) {
    EXPECT_GE(b.share(FailureType::kDisk), 0.15) << b.label;
    EXPECT_LE(b.share(FailureType::kDisk), 0.60) << b.label;
    EXPECT_GE(b.share(FailureType::kPhysicalInterconnect), 0.22) << b.label;
    EXPECT_LE(b.share(FailureType::kPhysicalInterconnect), 0.72) << b.label;
    EXPECT_GT(b.share(FailureType::kProtocol), 0.02) << b.label;
  }
}

TEST(Finding2, DiskAfrNotIndicativeOfSubsystemAfr) {
  // Near-line disks fail more than low-end disks (1.9% vs 0.9%), yet the
  // near-line *subsystem* AFR is lower (3.4% vs 4.6%).
  const auto ds = without_family_h(fleet_dataset().dataset);
  core::Filter nearline;
  nearline.system_class = model::SystemClass::kNearLine;
  core::Filter lowend;
  lowend.system_class = model::SystemClass::kLowEnd;
  const core::Source nl_cohort(ds, nearline);
  const core::Source le_cohort(ds, lowend);
  const auto nl = core::compute_afr(nl_cohort);
  const auto le = core::compute_afr(le_cohort);
  EXPECT_GT(nl.afr_pct(FailureType::kDisk), 1.5 * le.afr_pct(FailureType::kDisk));
  EXPECT_LT(nl.total_afr_pct(), le.total_afr_pct());
}

TEST(Finding3, ProblematicFamilyDoublesSubsystemAfr) {
  const auto& ds = fleet_dataset().dataset;
  core::Filter h_only;
  h_only.disk_family = 'H';
  const core::Source h_cohort(ds, h_only);
  const auto rest_cohort = without_family_h(ds);
  const auto h = core::compute_afr(h_cohort);
  const auto rest = core::compute_afr(rest_cohort);
  EXPECT_GT(h.total_afr_pct(), 1.6 * rest.total_afr_pct());
  // The coupling shows up in protocol and performance too, not just disks.
  EXPECT_GT(h.afr_pct(FailureType::kProtocol), 1.5 * rest.afr_pct(FailureType::kProtocol));
}

TEST(Finding4, DiskAfrStableSubsystemAfrNot) {
  // Same disk model across environments: disk AFR varies little (the paper
  // reports average relative std-dev under 11%), subsystem AFR varies a lot
  // (average ~98%... driven by interconnect differences).
  const auto ds = without_family_h(fleet_dataset().dataset);
  const auto rows = core::afr_stability_by_disk_model(ds);
  ASSERT_FALSE(rows.empty());
  double disk_spread = 0.0, subsystem_spread = 0.0;
  for (const auto& row : rows) {
    disk_spread += row.rel_stddev_disk_afr;
    subsystem_spread += row.rel_stddev_subsystem_afr;
  }
  disk_spread /= static_cast<double>(rows.size());
  subsystem_spread /= static_cast<double>(rows.size());
  EXPECT_LT(disk_spread, 0.25);
  EXPECT_GT(subsystem_spread, 1.5 * disk_spread);
}

TEST(Finding5, AfrDoesNotGrowWithCapacity) {
  // Within family D, the larger D-2 has no higher disk AFR than D-1.
  const auto& ds = fleet_dataset().dataset;
  core::Filter d1;
  d1.disk_model = model::DiskModelName{'D', 1};
  core::Filter d2;
  d2.disk_model = model::DiskModelName{'D', 2};
  const core::Source d1_cohort(ds, d1);
  const core::Source d2_cohort(ds, d2);
  const auto b1 = core::compute_afr(d1_cohort);
  const auto b2 = core::compute_afr(d2_cohort);
  ASSERT_GT(b1.disk_years, 0.0);
  ASSERT_GT(b2.disk_years, 0.0);
  EXPECT_LE(b2.afr_pct(FailureType::kDisk), b1.afr_pct(FailureType::kDisk) * 1.1);
}

TEST(Finding6, ShelfModelAffectsInterconnectWithFlip) {
  // Low-end, same disk model, different shelf enclosure: the interconnect
  // AFR differs, and the better shelf depends on the disk model (A-2
  // prefers shelf B; A-3/D-2/D-3 prefer shelf A).
  const auto ds = without_family_h(fleet_dataset().dataset);
  auto pi_for = [&](model::DiskModelName dm, char shelf) {
    core::Filter f;
    f.system_class = model::SystemClass::kLowEnd;
    f.disk_model = dm;
    f.shelf_model = model::ShelfModelName{shelf};
    const core::Source cohort(ds, f);
    return core::compute_afr(cohort).afr_pct(FailureType::kPhysicalInterconnect);
  };
  EXPECT_GT(pi_for({'A', 2}, 'A'), pi_for({'A', 2}, 'B'));
  EXPECT_LT(pi_for({'A', 3}, 'A'), pi_for({'A', 3}, 'B'));
  EXPECT_LT(pi_for({'D', 2}, 'A'), pi_for({'D', 2}, 'B'));
  EXPECT_LT(pi_for({'D', 3}, 'A'), pi_for({'D', 3}, 'B'));
}

TEST(Finding7, MultipathingCutsInterconnectFailures) {
  // Dual paths: interconnect AFR down 50-60%, subsystem AFR down 30-40%.
  const auto ds = without_family_h(fleet_dataset().dataset);
  for (const auto cls : {model::SystemClass::kMidRange, model::SystemClass::kHighEnd}) {
    core::Filter single;
    single.system_class = cls;
    single.paths = model::PathConfig::kSinglePath;
    core::Filter dual = single;
    dual.paths = model::PathConfig::kDualPath;
    const auto cmp = core::compare_cohorts(core::Source(ds, single), "single",
                                           core::Source(ds, dual), "dual",
                                           FailureType::kPhysicalInterconnect, 0.999);
    EXPECT_GT(cmp.focus_reduction(), 0.32) << model::to_string(cls);
    EXPECT_LT(cmp.focus_reduction(), 0.70) << model::to_string(cls);
    EXPECT_GT(cmp.total_reduction(), 0.15) << model::to_string(cls);
    EXPECT_TRUE(cmp.significant_at(0.999)) << model::to_string(cls);
  }
}

TEST(Finding8, NonDiskFailuresBurstier) {
  // Within a shelf, interconnect/protocol/performance failures show much
  // stronger temporal locality than disk failures.
  const auto& ds = fleet_dataset().dataset;
  const auto tbf = core::time_between_failures(ds, core::Scope::kShelf);
  const double disk = tbf.fraction_within(core::series_of(FailureType::kDisk), 1e4);
  for (const auto type : {FailureType::kPhysicalInterconnect, FailureType::kProtocol,
                          FailureType::kPerformance}) {
    EXPECT_GT(tbf.fraction_within(core::series_of(type), 1e4), 2.0 * disk)
        << model::to_string(type);
  }
  // Interconnect is the burstiest of all (the paper's Figure 9(a)).
  EXPECT_GE(tbf.fraction_within(core::series_of(FailureType::kPhysicalInterconnect), 1e4),
            tbf.fraction_within(core::series_of(FailureType::kProtocol), 1e4));
  // Overall: a large fraction of consecutive failures arrive within 10^4 s
  // (the paper reports ~48%).
  EXPECT_GT(tbf.fraction_within(core::kOverallSeries, 1e4), 0.25);
  EXPECT_LT(tbf.fraction_within(core::kOverallSeries, 1e4), 0.60);
}

TEST(Finding9, RaidGroupsLessBurstyThanShelves) {
  // Spanning RAID groups over shelves reduces burstiness (48% -> 30% within
  // 10^4 s in the paper).
  const auto& ds = fleet_dataset().dataset;
  const auto shelf = core::time_between_failures(ds, core::Scope::kShelf);
  const auto group = core::time_between_failures(ds, core::Scope::kRaidGroup);
  EXPECT_LT(group.fraction_within(core::kOverallSeries, 1e4),
            0.85 * shelf.fraction_within(core::kOverallSeries, 1e4));
}

TEST(Finding10, GroupsStillBursty) {
  const auto& ds = fleet_dataset().dataset;
  const auto group = core::time_between_failures(ds, core::Scope::kRaidGroup);
  EXPECT_GT(group.fraction_within(core::kOverallSeries, 1e4), 0.15);
}

TEST(Finding11, FailuresAreNotIndependent) {
  // Empirical P(2) exceeds the independence prediction for every type, in
  // both shelf and RAID-group scopes; disk failures show the weakest
  // correlation (the paper: ~6x vs 10-25x for the others).
  const auto& ds = fleet_dataset().dataset;
  for (const auto scope : {core::Scope::kShelf, core::Scope::kRaidGroup}) {
    double disk_factor = 0.0;
    double min_other = 1e9;
    for (const auto& r : core::failure_correlation_all_types(ds, scope)) {
      EXPECT_GT(r.correlation_factor(), 1.8)
          << model::to_string(r.type) << (scope == core::Scope::kShelf ? " shelf" : " group");
      EXPECT_TRUE(r.independence_test().significant_at(0.995)) << model::to_string(r.type);
      if (r.type == FailureType::kDisk) {
        disk_factor = r.correlation_factor();
      } else {
        min_other = std::min(min_other, r.correlation_factor());
      }
    }
    if (scope == core::Scope::kShelf) {
      // Disk failures: correlated, but less than the other types.
      EXPECT_LT(disk_factor, 12.0);
      EXPECT_GT(min_other, 0.8 * disk_factor);
    }
  }
}

TEST(Figure9, GammaBestFitForDiskInterarrivals) {
  // The paper: Gamma is the best fit for disk-failure interarrivals (the
  // only candidate not rejected); interconnect/protocol/performance follow
  // no common distribution. We assert the robust part: Gamma dominates by
  // likelihood for disk failures with a sub-exponential (shape < 1) profile.
  const auto& ds = fleet_dataset().dataset;
  const auto tbf = core::time_between_failures(ds, core::Scope::kShelf);
  const auto& gaps = tbf.gaps[core::series_of(FailureType::kDisk)];
  ASSERT_GT(gaps.size(), 500u);
  const auto report = core::fit_interarrivals(gaps, 15, 300);
  EXPECT_EQ(report.best_by_likelihood().family, core::CandidateFamily::kGamma);
  EXPECT_LT(report.candidates[1].fit.param1, 1.0);  // shape < 1: clumpy
  // Exponential (the classic RAID-model assumption) is decisively worse.
  EXPECT_GT(report.candidates[1].fit.log_likelihood,
            report.candidates[0].fit.log_likelihood + 10.0);
}

TEST(Ablation, SpanReducesGroupBurstiness) {
  // The span ablation: groups confined to one shelf inherit the shelf's
  // burstiness; spanning 3+ shelves dilutes it (paper's Finding 9 logic).
  auto narrow = sim::run_span_ablation(1, 0.15, 5);
  auto wide = sim::run_span_ablation(5, 0.15, 5);
  const auto ds_narrow = core::dataset_in_memory(narrow.fleet, narrow.result);
  const auto ds_wide = core::dataset_in_memory(wide.fleet, wide.result);
  const auto b_narrow = core::time_between_failures(ds_narrow, core::Scope::kRaidGroup);
  const auto b_wide = core::time_between_failures(ds_wide, core::Scope::kRaidGroup);
  EXPECT_LT(b_wide.fraction_within(core::kOverallSeries, 1e4),
            b_narrow.fraction_within(core::kOverallSeries, 1e4));
}

TEST(Ablation, KnockoutsRemoveCorrelation) {
  // With every correlation mechanism disabled, the correlation factor falls
  // to ~1 and burstiness collapses — the control experiment behind
  // Findings 8-11.
  sim::MechanismToggles off;
  off.shelf_badness = false;
  off.hawkes = false;
  off.environment_windows = false;
  off.interconnect_clusters = false;
  off.driver_windows = false;
  off.congestion_windows = false;
  auto fs = sim::run_mechanism_ablation(off, 0.1, 20080226);
  const auto ds = core::dataset_in_memory(fs.fleet, fs.result);
  for (const auto& r : core::failure_correlation_all_types(ds, core::Scope::kShelf)) {
    EXPECT_LT(r.correlation_factor(), 2.5) << model::to_string(r.type);
  }
  const auto tbf = core::time_between_failures(ds, core::Scope::kShelf);
  EXPECT_LT(tbf.fraction_within(core::kOverallSeries, 1e4), 0.05);
}
