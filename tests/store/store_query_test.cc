// store::Query semantics against hand-computed answers from the same run's
// in-memory Dataset: filters compose, group-bys match afr_by_class /
// compute_afr bit for bit, and time-window predicates prune whole blocks
// through the footer's block index.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/afr.h"
#include "core/pipeline.h"
#include "core/store_bridge.h"
#include "model/fleet_config.h"
#include "model/time.h"
#include "sim/params.h"
#include "stats/rng.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/writer.h"

namespace core = storsubsim::core;
namespace model = storsubsim::model;
namespace sim = storsubsim::sim;
namespace stats = storsubsim::stats;
namespace store = storsubsim::store;

namespace {

class StoreQuery : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    run_ = new core::SimulationDataset(core::simulate_and_analyze(
        model::standard_fleet_config(0.05, 31), sim::SimParams::standard(), false));
    store::StoreContents contents;
    contents.inventory = &run_->dataset.inventory();
    contents.events = run_->dataset.events();
    contents.seed = 31;
    contents.scale = 0.05;
    std::string image;
    ASSERT_TRUE(store::build_store_image(contents, &image).ok());
    store_ = new store::EventStore;
    ASSERT_TRUE(store_->open_image(std::move(image)).ok());
  }
  static void TearDownTestSuite() {
    delete store_;
    store_ = nullptr;
    delete run_;
    run_ = nullptr;
  }

  static core::SimulationDataset* run_;
  static store::EventStore* store_;
};

core::SimulationDataset* StoreQuery::run_ = nullptr;
store::EventStore* StoreQuery::store_ = nullptr;

/// The system owning an event's disk.
const storsubsim::log::InventorySystem& system_of(const core::Dataset& dataset,
                                                  const core::FailureEvent& e) {
  return dataset.inventory().systems[e.system.value()];
}

char family_of(const core::Dataset& dataset, const core::FailureEvent& e) {
  return system_of(dataset, e).disk_model.family;
}

}  // namespace

TEST_F(StoreQuery, UnfilteredAggregateMatchesComputeAfr) {
  store::Query query;
  const auto result = store::run_query(*store_, query);
  ASSERT_EQ(result.groups.size(), 1u);
  const auto reference = core::compute_afr(run_->dataset);
  EXPECT_EQ(result.groups[0].events, reference.total_events());
  for (const auto type : model::kAllFailureTypes) {
    EXPECT_EQ(result.groups[0].events_by_type[model::index_of(type)],
              reference.events[model::index_of(type)]);
  }
  EXPECT_EQ(result.groups[0].disk_years, reference.disk_years);
  EXPECT_EQ(result.groups[0].afr_pct, reference.total_afr_pct());
  EXPECT_EQ(result.stats.rows_scanned, run_->dataset.events().size());
  EXPECT_EQ(result.stats.rows_matched, run_->dataset.events().size());
  EXPECT_EQ(result.stats.blocks_pruned, 0u);
}

TEST_F(StoreQuery, GroupByClassMatchesAfrByClassBitForBit) {
  store::Query query;
  query.group_by = store::Query::GroupBy::kSystemClass;
  const auto result = store::run_query(*store_, query);
  const auto reference = core::afr_by_class(run_->dataset);
  ASSERT_EQ(result.groups.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(result.groups[i].label, reference[i].label);
    EXPECT_EQ(result.groups[i].events, reference[i].total_events());
    EXPECT_EQ(result.groups[i].disk_years, reference[i].disk_years);
    EXPECT_EQ(result.groups[i].afr_pct, reference[i].total_afr_pct());
    for (std::size_t t = 0; t < 4; ++t) {
      EXPECT_EQ(result.groups[i].events_by_type[t], reference[i].events[t]);
    }
  }
}

TEST_F(StoreQuery, ClassFilterSelectsOneShard) {
  store::Query query;
  query.system_class = model::SystemClass::kNearLine;
  const auto result = store::run_query(*store_, query);
  ASSERT_EQ(result.groups.size(), 1u);
  std::uint64_t expected = 0;
  for (const auto& e : run_->dataset.events()) {
    if (system_of(run_->dataset, e).cls == model::SystemClass::kNearLine) ++expected;
  }
  EXPECT_EQ(result.groups[0].events, expected);
  // Only the near-line shard was touched.
  EXPECT_EQ(result.stats.rows_scanned,
            store_->events(model::SystemClass::kNearLine).size());
}

TEST_F(StoreQuery, TypeAndFamilyFiltersMatchManualCounts) {
  store::Query query;
  query.failure_type = model::FailureType::kPhysicalInterconnect;
  query.disk_family = 'H';
  const auto result = store::run_query(*store_, query);
  ASSERT_EQ(result.groups.size(), 1u);
  std::uint64_t expected = 0;
  for (const auto& e : run_->dataset.events()) {
    if (e.type == model::FailureType::kPhysicalInterconnect &&
        family_of(run_->dataset, e) == 'H') {
      ++expected;
    }
  }
  ASSERT_GT(expected, 0u);
  EXPECT_EQ(result.groups[0].events, expected);
}

TEST_F(StoreQuery, GroupByFamilyMatchesManualTally) {
  store::Query query;
  query.group_by = store::Query::GroupBy::kDiskFamily;
  const auto result = store::run_query(*store_, query);
  std::map<char, std::uint64_t> expected;
  for (const auto& e : run_->dataset.events()) ++expected[family_of(run_->dataset, e)];
  std::uint64_t grouped_total = 0;
  for (const auto& g : result.groups) {
    ASSERT_EQ(g.label.size(), 8u) << g.label;  // "family X"
    const char family = g.label.back();
    const auto it = expected.find(family);
    EXPECT_EQ(g.events, it == expected.end() ? 0u : it->second) << g.label;
    grouped_total += g.events;
  }
  EXPECT_EQ(grouped_total, run_->dataset.events().size());
}

TEST_F(StoreQuery, GroupByTypeUsesTheSharedCohortDenominator) {
  store::Query query;
  query.group_by = store::Query::GroupBy::kFailureType;
  const auto result = store::run_query(*store_, query);
  const auto reference = core::compute_afr(run_->dataset);
  ASSERT_EQ(result.groups.size(), 4u);
  for (const auto type : model::kAllFailureTypes) {
    const auto& g = result.groups[model::index_of(type)];
    EXPECT_EQ(g.label, std::string(model::to_string(type)));
    EXPECT_EQ(g.events, reference.events[model::index_of(type)]);
    EXPECT_EQ(g.disk_years, reference.disk_years);
    EXPECT_EQ(g.afr_pct, reference.afr_pct(type));
  }
}

TEST_F(StoreQuery, TimeWindowMatchesManualCountAndDisablesRates) {
  const double begin = 100.0 * model::kSecondsPerDay;
  const double end = 400.0 * model::kSecondsPerDay;
  store::Query query;
  query.time_begin = begin;
  query.time_end = end;
  const auto result = store::run_query(*store_, query);
  ASSERT_EQ(result.groups.size(), 1u);
  std::uint64_t expected = 0;
  for (const auto& e : run_->dataset.events()) {
    if (e.time >= begin && e.time < end) ++expected;
  }
  ASSERT_GT(expected, 0u);
  EXPECT_EQ(result.groups[0].events, expected);
  // Windowed exposure is not stored: counts only, no rate.
  EXPECT_EQ(result.groups[0].disk_years, 0.0);
  EXPECT_EQ(result.groups[0].afr_pct, 0.0);
}

TEST_F(StoreQuery, ImpossibleWindowPrunesEveryBlock) {
  store::Query query;
  query.time_end = -1.0;  // before every detection time
  const auto result = store::run_query(*store_, query);
  ASSERT_EQ(result.groups.size(), 1u);
  EXPECT_EQ(result.groups[0].events, 0u);
  EXPECT_EQ(result.stats.rows_scanned, 0u);
  EXPECT_EQ(result.stats.blocks_scanned, 0u);
  std::uint64_t total_blocks = 0;
  for (const auto cls : model::kAllSystemClasses) {
    total_blocks += store_->blocks(cls).size();
  }
  EXPECT_EQ(result.stats.blocks_pruned, total_blocks);
  ASSERT_GT(total_blocks, 0u);
}

TEST_F(StoreQuery, RandomizedQueriesMatchABruteForceRowScan) {
  // Differential against a naive row loop over the store's own views: the
  // bitmap scan (prune + predicate kernels + popcount aggregation) must give
  // the same matched counts for arbitrary filter/window/group-by combos.
  stats::Rng rng(20080808);
  const char families[] = {'A', 'E', 'H', 'K', 'Z'};  // Z: absent from fleet
  for (int round = 0; round < 60; ++round) {
    store::Query query;
    if (rng.below(2) == 0) {
      query.failure_type = model::kAllFailureTypes[rng.below(4)];
    }
    if (rng.below(2) == 0) {
      query.disk_family = families[rng.below(sizeof(families))];
    }
    if (rng.below(2) == 0) {
      query.time_begin = rng.uniform(0.0, 900.0) * model::kSecondsPerDay;
    }
    if (rng.below(2) == 0) {
      query.time_end = rng.uniform(0.0, 900.0) * model::kSecondsPerDay;
    }
    const store::Query::GroupBy group_bys[] = {
        store::Query::GroupBy::kNone, store::Query::GroupBy::kSystemClass,
        store::Query::GroupBy::kFailureType, store::Query::GroupBy::kDiskFamily};
    query.group_by = group_bys[rng.below(4)];
    const auto result = store::run_query(*store_, query);

    std::uint64_t expected = 0;
    for (const auto cls : model::kAllSystemClasses) {
      const auto view = store_->events(cls);
      for (std::size_t i = 0; i < view.size(); ++i) {
        if (query.failure_type &&
            view.type[i] != static_cast<std::uint8_t>(
                                model::index_of(*query.failure_type))) {
          continue;
        }
        if (query.disk_family &&
            view.family[i] != static_cast<std::uint8_t>(*query.disk_family)) {
          continue;
        }
        if (query.time_begin && view.time[i] < *query.time_begin) continue;
        if (query.time_end && view.time[i] >= *query.time_end) continue;
        ++expected;
      }
    }
    EXPECT_EQ(result.stats.rows_matched, expected) << "round " << round;
    std::uint64_t grouped = 0;
    for (const auto& g : result.groups) grouped += g.events;
    EXPECT_EQ(grouped, expected) << "round " << round;
  }
}

TEST_F(StoreQuery, FiltersCompose) {
  store::Query query;
  query.system_class = model::SystemClass::kMidRange;
  query.failure_type = model::FailureType::kDisk;
  query.time_begin = 0.0;
  query.time_end = 600.0 * model::kSecondsPerDay;
  const auto result = store::run_query(*store_, query);
  ASSERT_EQ(result.groups.size(), 1u);
  std::uint64_t expected = 0;
  for (const auto& e : run_->dataset.events()) {
    if (system_of(run_->dataset, e).cls == model::SystemClass::kMidRange &&
        e.type == model::FailureType::kDisk && e.time >= 0.0 &&
        e.time < 600.0 * model::kSecondsPerDay) {
      ++expected;
    }
  }
  EXPECT_EQ(result.groups[0].events, expected);
  EXPECT_EQ(result.stats.rows_matched, expected);
}
