// Cross-cutting property tests: statistical invariants that must hold across
// fleet scale, seeds, and parameter sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/afr.h"
#include "core/burstiness.h"
#include "core/pipeline.h"
#include "core/source.h"
#include "core/store_bridge.h"
#include "log/line_writer.h"
#include "log/snapshot.h"
#include "model/fleet_config.h"
#include "sim/log_bridge.h"
#include "sim/scenario.h"
#include "util/parallel.h"

namespace core = storsubsim::core;
namespace log_ns = storsubsim::log;
namespace model = storsubsim::model;
namespace sim = storsubsim::sim;

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Field-by-field, bitwise equality of two parsed inventories.
void expect_inventory_identical(const storsubsim::log::Inventory& a,
                                const storsubsim::log::Inventory& b) {
  EXPECT_EQ(bits(a.horizon_seconds), bits(b.horizon_seconds));
  ASSERT_EQ(a.systems.size(), b.systems.size());
  for (std::size_t i = 0; i < a.systems.size(); ++i) {
    const auto& x = a.systems[i];
    const auto& y = b.systems[i];
    EXPECT_EQ(x.id, y.id) << "system " << i;
    EXPECT_EQ(x.cls, y.cls) << "system " << i;
    EXPECT_EQ(x.paths, y.paths) << "system " << i;
    EXPECT_EQ(x.disk_model, y.disk_model) << "system " << i;
    EXPECT_EQ(x.shelf_model, y.shelf_model) << "system " << i;
    EXPECT_EQ(bits(x.deploy_time), bits(y.deploy_time)) << "system " << i;
    EXPECT_EQ(x.cohort, y.cohort) << "system " << i;
  }
  ASSERT_EQ(a.shelves.size(), b.shelves.size());
  for (std::size_t i = 0; i < a.shelves.size(); ++i) {
    EXPECT_EQ(a.shelves[i].id, b.shelves[i].id) << "shelf " << i;
    EXPECT_EQ(a.shelves[i].system, b.shelves[i].system) << "shelf " << i;
    EXPECT_EQ(a.shelves[i].model, b.shelves[i].model) << "shelf " << i;
  }
  ASSERT_EQ(a.raid_groups.size(), b.raid_groups.size());
  for (std::size_t i = 0; i < a.raid_groups.size(); ++i) {
    const auto& x = a.raid_groups[i];
    const auto& y = b.raid_groups[i];
    EXPECT_EQ(x.id, y.id) << "group " << i;
    EXPECT_EQ(x.system, y.system) << "group " << i;
    EXPECT_EQ(x.type, y.type) << "group " << i;
    EXPECT_EQ(x.member_count, y.member_count) << "group " << i;
    EXPECT_EQ(x.shelf_span, y.shelf_span) << "group " << i;
  }
  ASSERT_EQ(a.disks.size(), b.disks.size());
  for (std::size_t i = 0; i < a.disks.size(); ++i) {
    const auto& x = a.disks[i];
    const auto& y = b.disks[i];
    EXPECT_EQ(x.id, y.id) << "disk " << i;
    EXPECT_EQ(x.model, y.model) << "disk " << i;
    EXPECT_EQ(x.system, y.system) << "disk " << i;
    EXPECT_EQ(x.shelf, y.shelf) << "disk " << i;
    EXPECT_EQ(x.raid_group, y.raid_group) << "disk " << i;
    EXPECT_EQ(x.slot, y.slot) << "disk " << i;
    EXPECT_EQ(bits(x.install_time), bits(y.install_time)) << "disk " << i;
    EXPECT_EQ(bits(x.remove_time), bits(y.remove_time)) << "disk " << i;
  }
}

/// The store image of `dataset`, meta block left empty: the bytes every cut
/// of one fleet into parts must give.
std::string image_of(const core::Dataset& dataset) {
  const core::SimulationDataset run{dataset, {}, {}};
  std::string image;
  EXPECT_TRUE(storsubsim::store::build_store_image(core::store_contents(run, 11, 1.0), &image)
                  .ok());
  return image;
}

/// Two datasets of one fleet, however each is cut into parts: the same
/// store image, and the same Source rows — events in (time, disk, type)
/// order (a Dataset yields them part by part), the rest in global id order.
void expect_same_fleet(const core::Dataset& want, const core::Dataset& got) {
  const std::string image = image_of(want);
  EXPECT_TRUE(image == image_of(got)) << "store images differ";
  using EventKey = std::tuple<std::uint64_t, std::uint32_t, model::FailureType, std::uint32_t,
                              std::uint32_t, std::uint32_t, model::SystemClass>;
  using DiskKey = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t, std::uint64_t>;
  using ScopeKey = std::tuple<std::uint32_t, std::uint64_t, model::RaidType>;
  const auto rows = [](const core::Source& source) {
    std::vector<EventKey> events;
    source.for_each_event([&](const core::EventRow& e) {
      events.emplace_back(bits(e.time), e.disk, e.type, e.system, e.shelf, e.raid_group, e.cls);
    });
    std::sort(events.begin(), events.end());
    std::vector<DiskKey> disks;
    source.for_each_disk([&](const core::DiskRow& d) {
      disks.emplace_back(d.id, d.system, bits(d.install_time), bits(d.remove_time));
    });
    std::vector<ScopeKey> scopes;
    for (const auto scope : {core::Scope::kShelf, core::Scope::kRaidGroup}) {
      source.for_each_scope(scope, [&](const core::ScopeRow& r) {
        scopes.emplace_back(r.id, bits(r.deploy_time), r.raid_type);
      });
    }
    std::vector<std::uint32_t> systems;
    source.for_each_system([&](const storsubsim::log::InventorySystem& sys) {
      systems.push_back(sys.id.value());
    });
    return std::make_tuple(events, disks, scopes, systems);
  };
  const auto a = rows(want);
  const auto b = rows(got);
  EXPECT_FALSE(std::get<0>(a).empty());
  EXPECT_TRUE(std::get<0>(a) == std::get<0>(b)) << "event rows differ";
  EXPECT_TRUE(std::get<1>(a) == std::get<1>(b)) << "disk rows differ";
  EXPECT_TRUE(std::get<2>(a) == std::get<2>(b)) << "scope rows differ";
  EXPECT_TRUE(std::get<3>(a) == std::get<3>(b)) << "system rows differ";
}

core::AfrBreakdown afr_at_scale(double scale, std::uint64_t seed) {
  const auto sd = core::simulate_and_analyze(model::standard_fleet_config(scale, seed),
                                             sim::SimParams::standard(), false);
  return core::compute_afr(sd.dataset);
}

}  // namespace

class ScaleInvariance : public ::testing::TestWithParam<double> {};

TEST_P(ScaleInvariance, AfrIndependentOfFleetScale) {
  // AFR is a rate: it must not drift with the fleet size (catches any
  // accounting that scales with counts instead of exposure).
  const auto reference = afr_at_scale(0.2, 42);
  const auto scaled = afr_at_scale(GetParam(), 42);
  EXPECT_NEAR(scaled.total_afr_pct(), reference.total_afr_pct(),
              0.08 * reference.total_afr_pct())
      << "scale=" << GetParam();
  for (const auto type : model::kAllFailureTypes) {
    EXPECT_NEAR(scaled.afr_pct(type), reference.afr_pct(type),
                0.15 * reference.afr_pct(type) + 0.02)
        << model::to_string(type);
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, ScaleInvariance, ::testing::Values(0.05, 0.1, 0.4));

class SeedStability : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedStability, HeadlineStatisticsStableAcrossSeeds) {
  const auto sd = core::simulate_and_analyze(
      model::standard_fleet_config(0.15, GetParam()), sim::SimParams::standard(), false);
  core::Filter no_h;
  no_h.exclude_family_h = true;
  const core::Source ds(sd.dataset, no_h);

  // Finding 2's inversion must hold for every seed.
  core::Filter nearline;
  nearline.system_class = model::SystemClass::kNearLine;
  core::Filter lowend;
  lowend.system_class = model::SystemClass::kLowEnd;
  const core::Source nl_cohort(ds, nearline);
  const core::Source le_cohort(ds, lowend);
  const auto nl = core::compute_afr(nl_cohort);
  const auto le = core::compute_afr(le_cohort);
  EXPECT_GT(nl.afr_pct(model::FailureType::kDisk), le.afr_pct(model::FailureType::kDisk));
  EXPECT_LT(nl.total_afr_pct(), le.total_afr_pct());

  // Shelf-scope burstiness exceeds group-scope for every seed (Finding 9).
  const auto shelf = core::time_between_failures(sd.dataset, core::Scope::kShelf);
  const auto group = core::time_between_failures(sd.dataset, core::Scope::kRaidGroup);
  EXPECT_GT(shelf.fraction_within(core::kOverallSeries, 1e4),
            group.fraction_within(core::kOverallSeries, 1e4));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedStability, ::testing::Values(1u, 777u, 424242u));

class DualPathFraction : public ::testing::TestWithParam<double> {};

TEST_P(DualPathFraction, MoreDualPathsLowerInterconnectAfr) {
  model::CohortSpec c;
  c.label = "dual-sweep";
  c.cls = model::SystemClass::kHighEnd;
  c.shelf_model = {'B'};
  c.disk_mix = {{{'D', 2}, 1.0}};
  c.num_systems = 2500;
  c.mean_shelves_per_system = 6.0;
  c.mean_disks_per_shelf = 12.0;
  c.raid_group_size = 8;
  c.raid_span_shelves = 3;

  auto run = [&](double dual_fraction) {
    c.dual_path_fraction = dual_fraction;
    const auto fs = sim::simulate_fleet(sim::cohort_fleet(c, 1.0, 99));
    const auto ds = core::dataset_in_memory(fs.fleet, fs.result);
    return core::compute_afr(ds).afr_pct(model::FailureType::kPhysicalInterconnect);
  };
  const double all_single = run(0.0);
  const double mixed = run(GetParam());
  const double all_dual = run(1.0);
  EXPECT_LT(all_dual, 0.65 * all_single);
  EXPECT_LT(mixed, all_single);
  EXPECT_GT(mixed, all_dual);
}

INSTANTIATE_TEST_SUITE_P(Fractions, DualPathFraction, ::testing::Values(0.3, 0.6));

// The fleet-parallel execution layer's contract: the full pipeline
// (simulate -> emit logs -> parse -> classify, snapshot write -> parse) and
// the store image are bit-identical for any worker count. Exercised at two
// scales; 3 workers cut the fleet into 3 chunks of uneven system counts.
class ThreadInvariance : public ::testing::TestWithParam<double> {
 protected:
  void TearDown() override { storsubsim::util::set_thread_count(0); }
};

TEST_P(ThreadInvariance, PipelineBitIdenticalAcrossThreadCounts) {
  const auto config = model::standard_fleet_config(GetParam(), 11);
  storsubsim::util::set_thread_count(1);
  const auto serial = core::simulate_and_analyze(config);
  for (const unsigned threads : {3U, 4U}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    storsubsim::util::set_thread_count(threads);
    const auto parallel = core::simulate_and_analyze(config);

    EXPECT_EQ(parallel.dataset.parts().size(), threads);
    expect_same_fleet(serial.dataset, parallel.dataset);
    EXPECT_EQ(serial.counters.events_by_type, parallel.counters.events_by_type);
    EXPECT_EQ(serial.counters.replacements, parallel.counters.replacements);
    EXPECT_EQ(serial.pipeline.log_lines_written, parallel.pipeline.log_lines_written);
    EXPECT_EQ(serial.pipeline.log_lines_parsed, parallel.pipeline.log_lines_parsed);
    EXPECT_EQ(serial.pipeline.raid_records, parallel.pipeline.raid_records);
    EXPECT_EQ(serial.pipeline.failures_classified, parallel.pipeline.failures_classified);
  }
}

TEST_P(ThreadInvariance, StoreBytesIdenticalAcrossThreadCounts) {
  // The columnar store extends the determinism contract to the serialized
  // artifact: the same run must produce byte-identical store files no matter
  // how many workers encode the class shards (docs/STORE.md).
  const auto config = model::standard_fleet_config(GetParam(), 11);
  storsubsim::util::set_thread_count(1);
  const auto serial = core::simulate_and_analyze(config);
  auto image_of = [](const core::SimulationDataset& run) {
    std::string image;
    EXPECT_TRUE(
        storsubsim::store::build_store_image(core::store_contents(run, 11, 1.0), &image).ok());
    return image;
  };
  const std::string serial_image = image_of(serial);

  storsubsim::util::set_thread_count(4);
  const auto parallel = core::simulate_and_analyze(config);
  const std::string parallel_image = image_of(parallel);

  ASSERT_EQ(serial_image.size(), parallel_image.size());
  EXPECT_EQ(serial_image, parallel_image);
}

INSTANTIATE_TEST_SUITE_P(Scales, ThreadInvariance, ::testing::Values(0.05, 0.2));

// simulate_and_analyze runs one chunk per worker and keeps each chunk as a
// part of its Dataset; the reference here shares none of that: the whole
// fleet simulated at once (sim::simulate_fleet), its failure logs and config
// snapshot written whole, and both read back through dataset_from_text as
// one part. The store image built from the parts and the Source rows,
// simulator counters and pipeline counts must all match at every thread
// count, with the standard parameters and with a Hawkes-heavy set — so an
// RNG stream keyed by a chunk-local index, or an id rebased off by one
// chunk, fails.
class ChunkedPipeline : public ::testing::TestWithParam<bool> {
 protected:
  void TearDown() override { storsubsim::util::set_thread_count(0); }
};

TEST_P(ChunkedPipeline, MatchesWholeFleetTextRoute) {
  auto params = sim::SimParams::standard();
  if (GetParam()) params.hawkes_branching = 0.25;
  const auto config = model::standard_fleet_config(0.05, 17);

  const auto fs = sim::simulate_fleet(config, params);
  log_ns::LineWriter logs;
  sim::write_failure_logs(logs, fs.fleet, fs.result.failures);
  log_ns::LineWriter snapshot;
  log_ns::write_snapshot(snapshot, fs.fleet);
  const auto text = core::dataset_from_text(logs.view(), snapshot.view());
  ASSERT_TRUE(text.error.empty()) << text.error;
  ASSERT_TRUE(text.dataset.has_value());
  const core::Dataset& reference = *text.dataset;
  ASSERT_GT(reference.parts()[0].events.size(), 0u);

  for (const unsigned threads : {1u, 3u, 4u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    storsubsim::util::set_thread_count(threads);
    const auto sd = core::simulate_and_analyze(config, params);

    EXPECT_EQ(sd.dataset.parts().size(), threads);
    expect_same_fleet(reference, sd.dataset);

    const sim::SimCounters& c = fs.result.counters;
    EXPECT_EQ(sd.counters.events_by_type, c.events_by_type);
    EXPECT_EQ(sd.counters.replacements, c.replacements);
    EXPECT_EQ(sd.counters.triggered_disk_failures, c.triggered_disk_failures);
    EXPECT_EQ(sd.counters.shelf_faults, c.shelf_faults);
    EXPECT_EQ(sd.counters.path_faults, c.path_faults);
    EXPECT_EQ(sd.counters.masked_path_faults, c.masked_path_faults);

    const core::PipelineStats& s = text.pipeline;
    EXPECT_EQ(sd.pipeline.log_lines_written, s.log_lines_written);
    EXPECT_EQ(sd.pipeline.log_lines_parsed, s.log_lines_parsed);
    EXPECT_EQ(sd.pipeline.raid_records, s.raid_records);
    EXPECT_EQ(sd.pipeline.failures_classified, s.failures_classified);
    EXPECT_EQ(sd.pipeline.duplicates_dropped, s.duplicates_dropped);
    EXPECT_EQ(sd.pipeline.missing_disk_dropped, s.missing_disk_dropped);

    // The in-memory route keeps its parts the same way.
    const auto memory = core::simulate_and_analyze(config, params, false);
    const auto whole = core::dataset_in_memory(fs.fleet, fs.result);
    expect_same_fleet(whole, memory.dataset);
    EXPECT_EQ(memory.counters.events_by_type, c.events_by_type);
  }
}

INSTANTIATE_TEST_SUITE_P(Params, ChunkedPipeline, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "HawkesHeavy" : "Standard";
                         });

TEST(CalibrationInvariant, WindowNormalizationPreservesMeanRates) {
  // Cranking the modulation multipliers up (with the built-in average-
  // multiplier normalization) must not move the mean protocol/performance
  // rates, only their clustering.
  auto hot = sim::SimParams::standard();
  hot.driver.multiplier = 200.0;
  hot.congestion.multiplier = 300.0;
  const auto config = model::standard_fleet_config(0.15, 5);
  const auto base = core::simulate_and_analyze(config, sim::SimParams::standard(), false);
  const auto modulated = core::simulate_and_analyze(config, hot, false);
  const auto b = core::compute_afr(base.dataset);
  const auto m = core::compute_afr(modulated.dataset);
  EXPECT_NEAR(m.afr_pct(model::FailureType::kProtocol),
              b.afr_pct(model::FailureType::kProtocol),
              0.15 * b.afr_pct(model::FailureType::kProtocol));
  EXPECT_NEAR(m.afr_pct(model::FailureType::kPerformance),
              b.afr_pct(model::FailureType::kPerformance),
              0.15 * b.afr_pct(model::FailureType::kPerformance));
}

TEST(CalibrationInvariant, HawkesNormalizationPreservesDiskRate) {
  auto heavy = sim::SimParams::standard();
  heavy.hawkes_branching = 0.25;
  const auto config = model::standard_fleet_config(0.15, 5);
  const auto base = core::simulate_and_analyze(config, sim::SimParams::standard(), false);
  const auto hawkes = core::simulate_and_analyze(config, heavy, false);
  EXPECT_NEAR(core::compute_afr(hawkes.dataset).afr_pct(model::FailureType::kDisk),
              core::compute_afr(base.dataset).afr_pct(model::FailureType::kDisk),
              0.08 * core::compute_afr(base.dataset).afr_pct(model::FailureType::kDisk));
}

TEST(Pipeline, DatasetFromTextMatchesDatasetViaLogs) {
  // The CLI's text ingest and the pipeline's round trip share one parse ->
  // classify step: over the same text they must build the same dataset and
  // the same stats, at one thread and at four.
  const auto fs = sim::simulate_fleet(model::standard_fleet_config(0.02, 7));
  log_ns::LineWriter logs;
  sim::write_failure_logs(logs, fs.fleet, fs.result.failures);
  log_ns::LineWriter snapshot;
  log_ns::write_snapshot(snapshot, fs.fleet);

  for (const unsigned threads : {1u, 4u}) {
    storsubsim::util::set_thread_count(threads);
    core::PipelineStats via_stats;
    const auto via = core::dataset_via_logs(fs.fleet, fs.result, &via_stats);
    const auto text = core::dataset_from_text(logs.view(), snapshot.view());
    storsubsim::util::set_thread_count(0);
    ASSERT_TRUE(text.error.empty()) << text.error;
    ASSERT_TRUE(text.dataset.has_value());
    const core::Dataset& from_text = *text.dataset;

    expect_inventory_identical(*from_text.parts()[0].inventory, *via.parts()[0].inventory);
    const auto& a = from_text.parts()[0].events;
    const auto& b = via.parts()[0].events;
    ASSERT_EQ(a.size(), b.size()) << threads << " threads";
    ASSERT_GT(a.size(), 0u);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(bits(a[i].time), bits(b[i].time));
      EXPECT_EQ(a[i].disk, b[i].disk);
      EXPECT_EQ(a[i].system, b[i].system);
      EXPECT_EQ(a[i].type, b[i].type);
    }

    const core::PipelineStats& s = text.pipeline;
    EXPECT_EQ(s.log_lines_written, via_stats.log_lines_written);
    EXPECT_EQ(s.log_lines_parsed, via_stats.log_lines_parsed);
    EXPECT_EQ(s.raid_records, via_stats.raid_records);
    EXPECT_EQ(s.failures_classified, via_stats.failures_classified);
    EXPECT_EQ(s.duplicates_dropped, via_stats.duplicates_dropped);
    EXPECT_EQ(s.missing_disk_dropped, via_stats.missing_disk_dropped);
    EXPECT_EQ(text.parse.lines_total, via_stats.log_lines_written);
    EXPECT_EQ(text.parse.lines_parsed, via_stats.log_lines_parsed);
    EXPECT_EQ(text.parse.lines_malformed, 0u);
  }
}
