// core::Source equivalence suite: the unified analysis entry points must be
// bit-identical across the two backends — a Dataset from the live pipeline
// and the serialized run's store file opened as a one-shard ShardStore — and
// the implicit
// backend-to-Source conversions must be exact (the pre-Source per-backend
// overloads were retired; implicit conversion is the only bridge left).
//
// Scale 0.05 is the in-ctest fidelity point (same as the store round-trip
// suite): large enough that every system class, failure type, and scope kind
// is populated, small enough to simulate in well under a second.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include "core/afr.h"
#include "core/burstiness.h"
#include "core/correlation.h"
#include "core/lifetime.h"
#include "core/pipeline.h"
#include "core/source.h"
#include "core/store_bridge.h"
#include "model/fleet_config.h"
#include "store/shards.h"

namespace core = storsubsim::core;
namespace model = storsubsim::model;
namespace store = storsubsim::store;

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
  }
  static void TearDownTestSuite() {
    delete store_;
    store_ = nullptr;
    std::remove(store_path_->c_str());
    delete store_path_;
    store_path_ = nullptr;
    delete run_;
    run_ = nullptr;
  }

  static const core::Dataset& dataset() { return run_->dataset; }
  static const store::ShardStore& event_store() { return *store_; }

  static core::SimulationDataset* run_;
  static std::string* store_path_;
  static store::ShardStore* store_;
};

core::SimulationDataset* SourceEquivalence::run_ = nullptr;
std::string* SourceEquivalence::store_path_ = nullptr;
store::ShardStore* SourceEquivalence::store_ = nullptr;

void expect_breakdown_identical(const core::AfrBreakdown& a, const core::AfrBreakdown& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.disk_years, b.disk_years);  // bit-identical, not approximate
  EXPECT_EQ(a.events, b.events);
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

// Filtered cohorts flow through Source the same way the unfiltered dataset
// does (stores always cover the whole cohort; the filter happens before the
// Source wrap).
TEST_F(SourceEquivalence, FilteredDatasetSourceMatchesLegacyFilterPath) {
  core::Filter no_h;
  no_h.exclude_family_h = true;
  const auto cohort = dataset().filter(no_h);
  const auto via_source = core::afr_by_class(core::Source(cohort));
  const auto via_legacy = core::afr_by_class(cohort);
  ASSERT_EQ(via_source.size(), via_legacy.size());
  for (std::size_t i = 0; i < via_source.size(); ++i) {
    expect_breakdown_identical(via_source[i], via_legacy[i]);
  }
  EXPECT_LT(core::compute_afr(core::Source(cohort)).total_events(),
            core::compute_afr(core::Source(dataset())).total_events());
}

TEST_F(SourceEquivalence, SourceAccessorsReportBackend) {
  const core::Source from_dataset(dataset());
  EXPECT_EQ(from_dataset.dataset(), &dataset());
  EXPECT_EQ(from_dataset.shards(), nullptr);

  const core::Source from_store(event_store());
  EXPECT_EQ(from_store.dataset(), nullptr);
  EXPECT_EQ(from_store.shards(), &event_store());
}
