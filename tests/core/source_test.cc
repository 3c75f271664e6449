// core::Source equivalence suite: the unified analysis entry points must be
// bit-identical across the two backends — a Dataset from the live pipeline,
// the serialized run's store file opened as a one-shard ShardStore, and a
// 4-shard directory of the same fleet — for the whole fleet and for every
// cohort, where Source(backend, f) must answer alike on all three. The rows
// a cohort walks are checked against a reference that applies
// Filter::selects to the Dataset's inventory directly, independent of the
// mask Source builds. The implicit backend-to-Source conversions must be
// exact too (the pre-Source per-backend overloads were retired; implicit
// conversion is the only bridge left).
//
// Scale 0.05 is the in-ctest fidelity point (same as the store round-trip
// suite): large enough that every system class, failure type, and scope kind
// is populated, small enough to simulate in well under a second.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/afr.h"
#include "core/analysis_render.h"
#include "core/analysis_request.h"
#include "core/burstiness.h"
#include "core/correlation.h"
#include "core/lifetime.h"
#include "core/pipeline.h"
#include "core/raid_vulnerability.h"
#include "core/sharded_build.h"
#include "core/significance.h"
#include "core/source.h"
#include "core/store_bridge.h"
#include "model/fleet_config.h"
#include "store/shards.h"

namespace core = storsubsim::core;
namespace model = storsubsim::model;
namespace store = storsubsim::store;

// A cohort borrows its backend, so a temporary backend must not bind.
static_assert(std::is_constructible_v<core::Source, const core::Dataset&, const core::Filter&>);
static_assert(!std::is_constructible_v<core::Source, core::Dataset&&, const core::Filter&>);
static_assert(!std::is_constructible_v<core::Source, store::ShardStore&&, const core::Filter&>);

namespace {

/// PID-unique: ctest runs each TEST in its own process, possibly in
/// parallel, and a store file being rewritten while another process has it
/// mmapped is a bus error waiting to happen.
std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

/// One simulated run plus its serialized store, shared by every test.
class SourceEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    run_ = new core::SimulationDataset(core::simulate_and_analyze(
        model::standard_fleet_config(0.05, 20080226)));
    store_path_ = new std::string(temp_path("source_equivalence.store"));
    ASSERT_TRUE(core::write_store(*store_path_, *run_, 20080226, 0.05).ok());
    store_ = new store::ShardStore;
    ASSERT_TRUE(store_->open(*store_path_).ok());

    shard_dir_ = new std::string(temp_path("source_equivalence.shards"));
    core::ShardedBuildOptions options;
    options.shards = 4;
    ASSERT_TRUE(core::build_sharded_store(*shard_dir_,
                                          model::standard_fleet_config(0.05, 20080226),
                                          options)
                    .ok());
    shards_ = new store::ShardStore;
    ASSERT_TRUE(shards_->open(*shard_dir_).ok());
    ASSERT_TRUE(shards_->open_all().ok());
    ASSERT_EQ(shards_->shard_count(), 4u);
  }
  static void TearDownTestSuite() {
    delete store_;
    store_ = nullptr;
    std::remove(store_path_->c_str());
    delete store_path_;
    store_path_ = nullptr;
    delete shards_;
    shards_ = nullptr;
    std::filesystem::remove_all(*shard_dir_);
    delete shard_dir_;
    shard_dir_ = nullptr;
    delete run_;
    run_ = nullptr;
  }

  static const core::Dataset& dataset() { return run_->dataset; }
  static const store::ShardStore& event_store() { return *store_; }
  static const store::ShardStore& shard_dir() { return *shards_; }

  static core::SimulationDataset* run_;
  static std::string* store_path_;
  static store::ShardStore* store_;
  static std::string* shard_dir_;
  static store::ShardStore* shards_;
};

core::SimulationDataset* SourceEquivalence::run_ = nullptr;
std::string* SourceEquivalence::store_path_ = nullptr;
store::ShardStore* SourceEquivalence::store_ = nullptr;
std::string* SourceEquivalence::shard_dir_ = nullptr;
store::ShardStore* SourceEquivalence::shards_ = nullptr;

void expect_breakdown_identical(const core::AfrBreakdown& a, const core::AfrBreakdown& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.disk_years, b.disk_years);  // bit-identical, not approximate
  EXPECT_EQ(a.events, b.events);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The cohorts the CLI can ask for: --class, --exclude-h, and both.
std::vector<std::pair<const char*, core::Filter>> cli_cohorts() {
  core::Filter cls;
  cls.system_class = model::SystemClass::kNearLine;
  core::Filter no_h;
  no_h.exclude_family_h = true;
  core::Filter both = cls;
  both.exclude_family_h = true;
  return {{"class", cls}, {"exclude-h", no_h}, {"class+exclude-h", both}};
}

/// Every Source analysis, RAID vulnerability and the event rows, bit for bit.
void expect_sources_identical(const core::Source& want, const core::Source& got) {
  const core::DiskYears years_want = want.disk_years();
  const core::DiskYears years_got = got.disk_years();
  EXPECT_EQ(bits(years_want.total), bits(years_got.total));
  for (std::size_t c = 0; c < years_want.by_class.size(); ++c) {
    EXPECT_EQ(bits(years_want.by_class[c]), bits(years_got.by_class[c])) << c;
    EXPECT_EQ(years_want.systems_by_class[c], years_got.systems_by_class[c]) << c;
  }

  expect_breakdown_identical(core::compute_afr(want, "cohort"), core::compute_afr(got, "cohort"));
  const auto by_class_want = core::afr_by_class(want);
  const auto by_class_got = core::afr_by_class(got);
  ASSERT_EQ(by_class_want.size(), by_class_got.size());
  for (std::size_t i = 0; i < by_class_want.size(); ++i) {
    expect_breakdown_identical(by_class_want[i], by_class_got[i]);
  }

  for (const auto scope : {core::Scope::kShelf, core::Scope::kRaidGroup}) {
    SCOPED_TRACE(scope == core::Scope::kShelf ? "shelf" : "raid-group");
    const auto tbf_want = core::time_between_failures(want, scope);
    const auto tbf_got = core::time_between_failures(got, scope);
    for (std::size_t series = 0; series < core::kSeriesCount; ++series) {
      EXPECT_EQ(tbf_want.gaps[series], tbf_got.gaps[series]) << series;
    }

    const auto corr_want = core::failure_correlation_all_types(want, scope);
    const auto corr_got = core::failure_correlation_all_types(got, scope);
    ASSERT_EQ(corr_want.size(), corr_got.size());
    for (std::size_t i = 0; i < corr_want.size(); ++i) {
      EXPECT_EQ(corr_want[i].windows_observed, corr_got[i].windows_observed);
      EXPECT_EQ(corr_want[i].windows_with_one, corr_got[i].windows_with_one);
      EXPECT_EQ(corr_want[i].windows_with_two, corr_got[i].windows_with_two);
    }
    const auto single_want =
        core::failure_correlation(want, scope, model::FailureType::kPhysicalInterconnect);
    const auto single_got =
        core::failure_correlation(got, scope, model::FailureType::kPhysicalInterconnect);
    EXPECT_EQ(single_want.windows_observed, single_got.windows_observed);
    EXPECT_EQ(single_want.windows_with_one, single_got.windows_with_one);
    EXPECT_EQ(single_want.windows_with_two, single_got.windows_with_two);

    const auto rows_want = core::failure_multiplicity(want, scope, model::FailureType::kDisk, 4);
    const auto rows_got = core::failure_multiplicity(got, scope, model::FailureType::kDisk, 4);
    ASSERT_EQ(rows_want.size(), rows_got.size());
    for (std::size_t i = 0; i < rows_want.size(); ++i) {
      EXPECT_EQ(bits(rows_want[i].empirical), bits(rows_got[i].empirical));
      EXPECT_EQ(bits(rows_want[i].theoretical), bits(rows_got[i].theoretical));
    }
    EXPECT_EQ(bits(core::dispersion_index(want, scope, model::FailureType::kDisk)),
              bits(core::dispersion_index(got, scope, model::FailureType::kDisk)));

    const auto cross_want = core::cross_type_correlation(
        want, scope, model::FailureType::kDisk, model::FailureType::kPhysicalInterconnect,
        7 * model::kSecondsPerDay);
    const auto cross_got = core::cross_type_correlation(
        got, scope, model::FailureType::kDisk, model::FailureType::kPhysicalInterconnect,
        7 * model::kSecondsPerDay);
    EXPECT_EQ(cross_want.triggers, cross_got.triggers);
    EXPECT_EQ(cross_want.triggers_followed, cross_got.triggers_followed);
    EXPECT_EQ(bits(cross_want.baseline_rate_per_scope_second),
              bits(cross_got.baseline_rate_per_scope_second));
  }

  const auto obs_want = core::disk_lifetime_observations(want);
  const auto obs_got = core::disk_lifetime_observations(got);
  ASSERT_EQ(obs_want.size(), obs_got.size());
  for (std::size_t i = 0; i < obs_want.size(); ++i) {
    EXPECT_EQ(bits(obs_want[i].duration), bits(obs_got[i].duration)) << i;
    EXPECT_EQ(obs_want[i].event, obs_got[i].event) << i;
  }
  const auto life_want = core::disk_lifetime_report(want);
  const auto life_got = core::disk_lifetime_report(got);
  EXPECT_EQ(life_want.disks, life_got.disks);
  EXPECT_EQ(life_want.failures, life_got.failures);
  EXPECT_EQ(bits(life_want.censored_fraction), bits(life_got.censored_fraction));

  for (const bool disk_only : {true, false}) {
    for (const double hours : {6.0, 24.0, 72.0}) {
      const auto v_want = core::raid_vulnerability(want, hours * 3600.0, disk_only);
      const auto v_got = core::raid_vulnerability(got, hours * 3600.0, disk_only);
      EXPECT_EQ(v_want.groups_observed, v_got.groups_observed);
      EXPECT_EQ(v_want.failures_considered, v_got.failures_considered);
      EXPECT_EQ(v_want.double_failure_incidents, v_got.double_failure_incidents);
      EXPECT_EQ(v_want.triple_failure_incidents, v_got.triple_failure_incidents);
      EXPECT_EQ(v_want.raid4_groups_defeated, v_got.raid4_groups_defeated);
      EXPECT_EQ(v_want.raid6_groups_defeated, v_got.raid6_groups_defeated);
      EXPECT_EQ(bits(v_want.expected_double_incidents_independent),
                bits(v_got.expected_double_incidents_independent));
    }
  }

  // The event rows, every field: the export renders them in one order.
  EXPECT_EQ(core::render_events(want, true), core::render_events(got, true));
}

/// A test-side cohort predicate: every filter in `filters` selects the system.
using Filters = std::vector<core::Filter>;
bool selects_all(const Filters& filters, const storsubsim::log::InventorySystem& sys) {
  return std::all_of(filters.begin(), filters.end(),
                     [&](const core::Filter& f) { return f.selects(sys); });
}

/// The rows `cohort` walks are the Dataset's rows whose owning system every
/// filter selects — read off the inventory here, not through Source — and
/// its disk-years are their exposures summed in disk-id order.
void expect_rows_match_reference(const core::Source& cohort, const core::Dataset& ds,
                                 const Filters& filters) {
  const auto& inv = ds.inventory();
  const auto owner_selected = [&](model::SystemId sys) {
    return selects_all(filters, inv.systems[sys.value()]);
  };

  using EventKey = std::tuple<double, std::uint32_t, model::FailureType, std::uint32_t>;
  std::vector<EventKey> want_events;
  for (const core::FailureEvent& e : ds.events()) {
    if (owner_selected(inv.disks[e.disk.value()].system)) {
      want_events.emplace_back(e.time, e.disk.value(), e.type, e.system.value());
    }
  }
  std::vector<EventKey> got_events;
  cohort.for_each_event([&](const core::EventRow& e) {
    got_events.emplace_back(e.time, e.disk, e.type, e.system);
  });
  std::sort(got_events.begin(), got_events.end());  // a store walks class by class
  EXPECT_EQ(got_events, want_events);
  EXPECT_FALSE(want_events.empty());

  std::vector<core::DiskRow> want_disks;
  double want_years = 0.0;
  for (const auto& d : inv.disks) {
    if (!owner_selected(d.system)) continue;
    want_disks.push_back({d.id.value(), d.system.value(), d.install_time, d.remove_time});
    want_years += inv.disk_exposure_years(d);
  }
  std::vector<core::DiskRow> got_disks;
  cohort.for_each_disk([&](const core::DiskRow& d) { got_disks.push_back(d); });
  ASSERT_EQ(got_disks.size(), want_disks.size());
  for (std::size_t i = 0; i < got_disks.size(); ++i) {
    EXPECT_EQ(got_disks[i].id, want_disks[i].id) << i;
    EXPECT_EQ(got_disks[i].system, want_disks[i].system) << i;
    EXPECT_EQ(bits(got_disks[i].install_time), bits(want_disks[i].install_time)) << i;
    EXPECT_EQ(bits(got_disks[i].remove_time), bits(want_disks[i].remove_time)) << i;
  }
  EXPECT_EQ(bits(cohort.disk_years().total), bits(want_years));

  std::vector<std::uint32_t> want_systems, got_systems;
  for (const auto& sys : inv.systems) {
    if (selects_all(filters, sys)) want_systems.push_back(sys.id.value());
  }
  cohort.for_each_system(
      [&](const storsubsim::log::InventorySystem& sys) { got_systems.push_back(sys.id.value()); });
  EXPECT_EQ(got_systems, want_systems);

  std::vector<std::uint32_t> want_shelves, want_groups, got_shelves, got_groups;
  for (const auto& sh : inv.shelves) {
    if (owner_selected(sh.system)) want_shelves.push_back(sh.id.value());
  }
  for (const auto& g : inv.raid_groups) {
    if (owner_selected(g.system)) want_groups.push_back(g.id.value());
  }
  cohort.for_each_scope(core::Scope::kShelf,
                        [&](const core::ScopeRow& r) { got_shelves.push_back(r.id); });
  cohort.for_each_scope(core::Scope::kRaidGroup,
                        [&](const core::ScopeRow& r) { got_groups.push_back(r.id); });
  EXPECT_EQ(got_shelves, want_shelves);
  EXPECT_EQ(got_groups, want_groups);

  const core::CohortCount count = cohort.count();
  EXPECT_EQ(count.systems, want_systems.size());
  EXPECT_EQ(count.shelves, want_shelves.size());
  EXPECT_EQ(count.raid_groups, want_groups.size());
  EXPECT_EQ(count.disk_records, want_disks.size());
}

/// The cohort analyses that narrow their Source again, bit for bit.
void expect_cohort_analyses_identical(const core::Source& want, const core::Source& got) {
  const auto by_model_want = core::afr_by_disk_model(want);
  const auto by_model_got = core::afr_by_disk_model(got);
  ASSERT_EQ(by_model_want.size(), by_model_got.size());
  EXPECT_FALSE(by_model_want.empty());
  for (std::size_t i = 0; i < by_model_want.size(); ++i) {
    expect_breakdown_identical(by_model_want[i], by_model_got[i]);
  }

  const auto by_paths_want = core::afr_by_path_config(want);
  const auto by_paths_got = core::afr_by_path_config(got);
  ASSERT_EQ(by_paths_want.size(), by_paths_got.size());
  for (std::size_t i = 0; i < by_paths_want.size(); ++i) {
    expect_breakdown_identical(by_paths_want[i], by_paths_got[i]);
  }

  const auto stability_want = core::afr_stability_by_disk_model(want);
  const auto stability_got = core::afr_stability_by_disk_model(got);
  ASSERT_EQ(stability_want.size(), stability_got.size());
  for (std::size_t i = 0; i < stability_want.size(); ++i) {
    EXPECT_EQ(stability_want[i].disk_model, stability_got[i].disk_model);
    EXPECT_EQ(stability_want[i].environments, stability_got[i].environments);
    EXPECT_EQ(bits(stability_want[i].mean_disk_afr), bits(stability_got[i].mean_disk_afr));
    EXPECT_EQ(bits(stability_want[i].rel_stddev_disk_afr),
              bits(stability_got[i].rel_stddev_disk_afr));
    EXPECT_EQ(bits(stability_want[i].mean_subsystem_afr),
              bits(stability_got[i].mean_subsystem_afr));
    EXPECT_EQ(bits(stability_want[i].rel_stddev_subsystem_afr),
              bits(stability_got[i].rel_stddev_subsystem_afr));
  }

  core::Filter single;
  single.paths = model::PathConfig::kSinglePath;
  core::Filter dual;
  dual.paths = model::PathConfig::kDualPath;
  const auto cmp_want =
      core::compare_cohorts(core::Source(want, single), "single", core::Source(want, dual),
                            "dual", model::FailureType::kPhysicalInterconnect, 0.999);
  const auto cmp_got =
      core::compare_cohorts(core::Source(got, single), "single", core::Source(got, dual),
                            "dual", model::FailureType::kPhysicalInterconnect, 0.999);
  expect_breakdown_identical(cmp_want.a, cmp_got.a);
  expect_breakdown_identical(cmp_want.b, cmp_got.b);
  EXPECT_EQ(bits(cmp_want.focus_test.t_statistic), bits(cmp_got.focus_test.t_statistic));
  EXPECT_EQ(bits(cmp_want.focus_test.p_value_two_sided),
            bits(cmp_got.focus_test.p_value_two_sided));
  EXPECT_EQ(bits(cmp_want.focus_ci_a.lower), bits(cmp_got.focus_ci_a.lower));
  EXPECT_EQ(bits(cmp_want.focus_ci_b.upper), bits(cmp_got.focus_ci_b.upper));
}

}  // namespace

TEST_F(SourceEquivalence, ComputeAfrMatchesAcrossBackends) {
  const auto from_dataset = core::compute_afr(core::Source(dataset()), "whole fleet");
  const auto from_store = core::compute_afr(core::Source(event_store()), "whole fleet");
  expect_breakdown_identical(from_dataset, from_store);
  EXPECT_GT(from_dataset.total_events(), 0u);
}

TEST_F(SourceEquivalence, AfrByClassMatchesAcrossBackends) {
  const auto from_dataset = core::afr_by_class(core::Source(dataset()));
  const auto from_store = core::afr_by_class(core::Source(event_store()));
  ASSERT_EQ(from_dataset.size(), from_store.size());
  ASSERT_FALSE(from_dataset.empty());
  for (std::size_t i = 0; i < from_dataset.size(); ++i) {
    expect_breakdown_identical(from_dataset[i], from_store[i]);
  }
}

TEST_F(SourceEquivalence, TimeBetweenFailuresMatchesAcrossBackends) {
  for (const auto scope : {core::Scope::kShelf, core::Scope::kRaidGroup}) {
    const auto from_dataset = core::time_between_failures(core::Source(dataset()), scope);
    const auto from_store = core::time_between_failures(core::Source(event_store()), scope);
    for (std::size_t series = 0; series < core::kSeriesCount; ++series) {
      ASSERT_EQ(from_dataset.gaps[series].size(), from_store.gaps[series].size());
      for (std::size_t i = 0; i < from_dataset.gaps[series].size(); ++i) {
        EXPECT_EQ(from_dataset.gaps[series][i], from_store.gaps[series][i]);
      }
    }
    EXPECT_GT(from_dataset.gap_count(core::kOverallSeries), 0u);
  }
}

TEST_F(SourceEquivalence, CorrelationMatchesAcrossBackends) {
  const auto from_dataset =
      core::failure_correlation_all_types(core::Source(dataset()), core::Scope::kShelf);
  const auto from_store =
      core::failure_correlation_all_types(core::Source(event_store()), core::Scope::kShelf);
  ASSERT_EQ(from_dataset.size(), from_store.size());
  for (std::size_t i = 0; i < from_dataset.size(); ++i) {
    EXPECT_EQ(from_dataset[i].type, from_store[i].type);
    EXPECT_EQ(from_dataset[i].windows_observed, from_store[i].windows_observed);
    EXPECT_EQ(from_dataset[i].windows_with_one, from_store[i].windows_with_one);
    EXPECT_EQ(from_dataset[i].windows_with_two, from_store[i].windows_with_two);
  }
}

TEST_F(SourceEquivalence, SingleTypeCorrelationMatchesAcrossBackends) {
  const auto from_dataset =
      core::failure_correlation(core::Source(dataset()), core::Scope::kShelf,
                                model::FailureType::kPhysicalInterconnect);
  const auto from_store =
      core::failure_correlation(core::Source(event_store()), core::Scope::kShelf,
                                model::FailureType::kPhysicalInterconnect);
  EXPECT_EQ(from_dataset.windows_observed, from_store.windows_observed);
  EXPECT_EQ(from_dataset.windows_with_one, from_store.windows_with_one);
  EXPECT_EQ(from_dataset.windows_with_two, from_store.windows_with_two);
}

TEST_F(SourceEquivalence, LifetimeMatchesAcrossBackends) {
  const auto obs_dataset = core::disk_lifetime_observations(core::Source(dataset()));
  const auto obs_store = core::disk_lifetime_observations(core::Source(event_store()));
  ASSERT_EQ(obs_dataset.size(), obs_store.size());
  for (std::size_t i = 0; i < obs_dataset.size(); ++i) {
    EXPECT_EQ(obs_dataset[i].duration, obs_store[i].duration);
    EXPECT_EQ(obs_dataset[i].event, obs_store[i].event);
  }

  const auto report_dataset = core::disk_lifetime_report(core::Source(dataset()));
  const auto report_store = core::disk_lifetime_report(core::Source(event_store()));
  EXPECT_EQ(report_dataset.disks, report_store.disks);
  EXPECT_EQ(report_dataset.failures, report_store.failures);
  EXPECT_EQ(report_dataset.censored_fraction, report_store.censored_fraction);
  ASSERT_EQ(report_dataset.hazard_by_age.size(), report_store.hazard_by_age.size());
  for (std::size_t i = 0; i < report_dataset.hazard_by_age.size(); ++i) {
    EXPECT_EQ(report_dataset.hazard_by_age[i].events, report_store.hazard_by_age[i].events);
    EXPECT_EQ(report_dataset.hazard_by_age[i].exposure,
              report_store.hazard_by_age[i].exposure);
  }
  ASSERT_EQ(report_dataset.survival.curve().size(), report_store.survival.curve().size());
  EXPECT_EQ(report_dataset.survival.median(), report_store.survival.median());
}

// The implicit backend-to-Source conversions must be exact: passing a
// Dataset or ShardStore lvalue straight to an analysis entry point yields
// the same numbers as wrapping it in an explicit Source.
TEST_F(SourceEquivalence, ImplicitConversionsAreExact) {
  const auto via_source = core::afr_by_class(core::Source(dataset()));
  const auto via_dataset_implicit = core::afr_by_class(dataset());
  const auto via_store_implicit = core::afr_by_class(event_store());
  ASSERT_EQ(via_source.size(), via_dataset_implicit.size());
  ASSERT_EQ(via_source.size(), via_store_implicit.size());
  for (std::size_t i = 0; i < via_source.size(); ++i) {
    expect_breakdown_identical(via_source[i], via_dataset_implicit[i]);
    expect_breakdown_identical(via_source[i], via_store_implicit[i]);
  }

  const auto tbf_source = core::time_between_failures(core::Source(dataset()),
                                                      core::Scope::kShelf);
  const auto tbf_legacy = core::time_between_failures(dataset(), core::Scope::kShelf);
  for (std::size_t series = 0; series < core::kSeriesCount; ++series) {
    EXPECT_EQ(tbf_source.gaps[series], tbf_legacy.gaps[series]);
  }
}

TEST_F(SourceEquivalence, WholeFleetMatchesAcrossAllThreeBackends) {
  expect_sources_identical(dataset(), event_store());
  expect_sources_identical(dataset(), shard_dir());
}

// A cohort is a mask over the backend's systems; on every backend it walks
// exactly the reference rows, and every analysis over it agrees.
TEST_F(SourceEquivalence, CohortOverStoreFileMatchesFilteredDataset) {
  const double fleet_years = core::Source(dataset()).disk_years().total;
  for (const auto& [name, filter] : cli_cohorts()) {
    SCOPED_TRACE(name);
    const core::Source from_dataset(dataset(), filter);
    const core::Source from_store(event_store(), filter);
    expect_rows_match_reference(from_dataset, dataset(), {filter});
    expect_rows_match_reference(from_store, dataset(), {filter});
    expect_sources_identical(from_dataset, from_store);
    const double years = from_store.disk_years().total;
    EXPECT_GT(years, 0.0);
    EXPECT_LT(years, fleet_years);
    EXPECT_FALSE(from_store.whole());
  }
}

TEST_F(SourceEquivalence, CohortOverShardDirectoryMatchesFilteredDataset) {
  for (const auto& [name, filter] : cli_cohorts()) {
    SCOPED_TRACE(name);
    const core::Source from_shards(shard_dir(), filter);
    expect_rows_match_reference(from_shards, dataset(), {filter});
    expect_sources_identical(core::Source(dataset(), filter), from_shards);
  }
}

// Narrowing a cohort again is the conjunction of both filters: a class and
// shelf cohort, then each disk model in it, as Figure 5's panels narrow.
TEST_F(SourceEquivalence, NestedCohortsAreConjunctionsOnEveryBackend) {
  const std::pair<model::SystemClass, char> panels[] = {{model::SystemClass::kNearLine, 'C'},
                                                        {model::SystemClass::kLowEnd, 'A'},
                                                        {model::SystemClass::kMidRange, 'B'}};
  for (const auto& [cls, shelf] : panels) {
    core::Filter outer;
    outer.system_class = cls;
    outer.shelf_model = model::ShelfModelName{shelf};
    std::vector<model::DiskModelName> models;
    const auto collect = [&](const storsubsim::log::InventorySystem& sys) {
      if (std::find(models.begin(), models.end(), sys.disk_model) == models.end()) {
        models.push_back(sys.disk_model);
      }
    };
    core::Source(dataset(), outer).for_each_system(collect);
    ASSERT_FALSE(models.empty());
    for (const auto& disk_model : models) {
      SCOPED_TRACE(::testing::Message() << model::to_string(cls) << " shelf " << shelf
                                        << " disk " << model::to_string(disk_model));
      core::Filter inner;
      inner.disk_model = disk_model;
      const core::Source from_dataset(core::Source(dataset(), outer), inner);
      const core::Source from_store(core::Source(event_store(), outer), inner);
      const core::Source from_shards(core::Source(shard_dir(), outer), inner);
      for (const core::Source* cohort : {&from_dataset, &from_store, &from_shards}) {
        expect_rows_match_reference(*cohort, dataset(), {outer, inner});
      }
      expect_sources_identical(from_dataset, from_store);
      expect_sources_identical(from_dataset, from_shards);
    }
  }
}

// The analyses that narrow their Source themselves — per disk model, per
// path configuration, per environment, and the two-cohort comparison —
// answer alike on every backend, for the whole fleet and for a cohort.
TEST_F(SourceEquivalence, CohortAnalysesMatchAcrossAllThreeBackends) {
  expect_cohort_analyses_identical(dataset(), event_store());
  expect_cohort_analyses_identical(dataset(), shard_dir());
  core::Filter no_h;
  no_h.exclude_family_h = true;
  core::Filter mid_range;
  mid_range.system_class = model::SystemClass::kMidRange;
  for (const core::Filter& filter : {no_h, mid_range}) {
    expect_cohort_analyses_identical(core::Source(dataset(), filter),
                                     core::Source(event_store(), filter));
    expect_cohort_analyses_identical(core::Source(dataset(), filter),
                                     core::Source(shard_dir(), filter));
  }
}

// A query scans the whole store, so over a cohort it answers like a
// Dataset-backed Source does — the empty result — never the whole store's
// rows.
TEST_F(SourceEquivalence, QueryOverACohortIsTheEmptyResult) {
  core::RequestParams params;
  params.group_by = "class";
  core::AnalysisRequest request;
  ASSERT_TRUE(
      core::AnalysisRequest::from_params(core::StatisticId::kQuery, params, true, &request).ok());
  core::Filter near_line;
  near_line.system_class = model::SystemClass::kNearLine;
  const std::string whole = core::render_statistic(event_store(), request);
  const std::string empty = core::render_statistic(dataset(), request);
  ASSERT_NE(whole, empty);
  EXPECT_EQ(core::render_statistic(core::Source(event_store(), near_line), request), empty);
  EXPECT_EQ(core::render_statistic(core::Source(shard_dir(), near_line), request), empty);
  // A filter every system passes is no cohort: the scan runs.
  EXPECT_EQ(core::render_statistic(core::Source(event_store(), core::Filter{}), request), whole);
}

// A filter every system passes is the whole fleet: the exposure table is
// read, and the answers do not move.
TEST_F(SourceEquivalence, CohortOfEverySystemIsTheWholeFleet) {
  core::Filter all;
  const core::Source store_cohort(event_store(), all);
  const core::Source dataset_cohort(dataset(), all);
  EXPECT_TRUE(store_cohort.whole());
  EXPECT_TRUE(dataset_cohort.whole());
  expect_sources_identical(event_store(), store_cohort);
  expect_sources_identical(dataset(), dataset_cohort);
}

TEST_F(SourceEquivalence, SourceAccessorsReportBackend) {
  const core::Source from_dataset(dataset());
  EXPECT_EQ(from_dataset.dataset(), &dataset());
  EXPECT_EQ(from_dataset.shards(), nullptr);

  const core::Source from_store(event_store());
  EXPECT_EQ(from_store.dataset(), nullptr);
  EXPECT_EQ(from_store.shards(), &event_store());
}
