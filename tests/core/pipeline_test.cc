// End-to-end pipeline: simulate -> logs -> parse -> classify -> dataset.
#include "core/pipeline.h"

#include <string>

#include <gtest/gtest.h>

#include "core/afr.h"
#include "log/snapshot.h"
#include "model/fleet_config.h"
#include "util/parallel.h"

namespace core = storsubsim::core;
namespace log_ns = storsubsim::log;
namespace model = storsubsim::model;
namespace sim = storsubsim::sim;
namespace util = storsubsim::util;

TEST(Pipeline, StatsAreConsistent) {
  const auto config = model::standard_fleet_config(0.01, 7);
  const auto sd = core::simulate_and_analyze(config);
  // Every written line parsed back; every RAID record classified or deduped.
  EXPECT_GT(sd.pipeline.log_lines_written, 0u);
  EXPECT_EQ(sd.pipeline.log_lines_written, sd.pipeline.log_lines_parsed);
  EXPECT_EQ(sd.pipeline.failures_classified, sd.dataset.events().size());
  // The simulator and the pipeline agree on the number of failures (the
  // dedup window may only collapse same-disk duplicates; the simulator
  // never emits them, so counts match exactly).
  EXPECT_EQ(sd.pipeline.failures_classified, sd.counters.total_events());
}

TEST(Pipeline, InMemoryPathMatchesCounters) {
  const auto config = model::standard_fleet_config(0.01, 7);
  const auto sd = core::simulate_and_analyze(config, sim::SimParams::standard(),
                                             /*through_text_logs=*/false);
  EXPECT_EQ(sd.dataset.events().size(), sd.counters.total_events());
  const auto afr = core::compute_afr(sd.dataset);
  for (const auto type : model::kAllFailureTypes) {
    EXPECT_EQ(afr.events[model::index_of(type)],
              sd.counters.events_by_type[model::index_of(type)]);
  }
}

TEST(Pipeline, DeterministicAcrossRuns) {
  const auto config = model::standard_fleet_config(0.005, 13);
  const auto a = core::simulate_and_analyze(config);
  const auto b = core::simulate_and_analyze(config);
  ASSERT_EQ(a.dataset.events().size(), b.dataset.events().size());
  const auto afr_a = core::compute_afr(a.dataset);
  const auto afr_b = core::compute_afr(b.dataset);
  EXPECT_NEAR(afr_a.disk_years, afr_b.disk_years, 1e-6);
  EXPECT_DOUBLE_EQ(afr_a.total_afr_pct(), afr_b.total_afr_pct());
}

TEST(Pipeline, TableOneShapeAtSmallScale) {
  // The structural ratios of Table 1 survive scaling: shelves/system and
  // disks/shelf per class are scale-invariant.
  const auto config = model::standard_fleet_config(0.02, 3);
  const auto sd = core::simulate_and_analyze(config, sim::SimParams::standard(), false);
  core::Filter nearline;
  nearline.system_class = model::SystemClass::kNearLine;
  const core::CohortCount nl = core::Source(sd.dataset, nearline).count();
  const double shelves_per_system =
      static_cast<double>(nl.shelves) / static_cast<double>(nl.systems);
  EXPECT_NEAR(shelves_per_system, 6.84, 0.8);

  core::Filter lowend;
  lowend.system_class = model::SystemClass::kLowEnd;
  const core::CohortCount le = core::Source(sd.dataset, lowend).count();
  const double le_shelves_per_system =
      static_cast<double>(le.shelves) / static_cast<double>(le.systems);
  EXPECT_NEAR(le_shelves_per_system, 1.69, 0.3);
}

TEST(Pipeline, DatasetFromTextReturnsTheSnapshotError) {
  // A corrupt snapshot is reported with parse_snapshot's own message, not
  // thrown; the log side still reports what it parsed.
  const std::string logs =
      "D0000 00:00:05 t=5.0 [raid.config.disk.failed:error] [sys=0 disk=0]: gone\n";
  const std::string snapshot =
      "SNAPSHOT horizon=1000000.0\n"
      "SHELF id=0 sys=0 model=A\n"
      "END\n";
  const std::string expected = log_ns::parse_snapshot(snapshot).error;
  EXPECT_EQ(expected, "snapshot: SHELF references unknown system");
  for (const unsigned threads : {1u, 4u}) {
    util::set_thread_count(threads);
    const auto text = core::dataset_from_text(logs, snapshot);
    util::set_thread_count(0);
    EXPECT_EQ(text.error, expected);
    EXPECT_FALSE(text.dataset.has_value());
    EXPECT_EQ(text.parse.lines_parsed, 1u);
    EXPECT_EQ(text.pipeline.failures_classified, 1u);
  }
}
