// Precursor stream generation: noise rates, pre-failure bursts, log
// round-trips.
#include "sim/precursors.h"

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "log/parser.h"
#include "sim/log_bridge.h"
#include "sim/scenario.h"

namespace sim = storsubsim::sim;
namespace model = storsubsim::model;

namespace {

sim::FleetSimulation small_sim(std::uint64_t seed = 11) {
  model::CohortSpec c;
  c.label = "pre";
  c.cls = model::SystemClass::kMidRange;
  c.shelf_model = {'B'};
  c.disk_mix = {{{'D', 2}, 1.0}};
  c.num_systems = 300;
  c.mean_shelves_per_system = 4.0;
  c.mean_disks_per_shelf = 11.0;
  c.raid_group_size = 8;
  c.raid_span_shelves = 3;
  return sim::simulate_fleet(sim::cohort_fleet(c, 1.0, seed));
}

}  // namespace

TEST(Precursors, NoiseRateMatchesCalibration) {
  auto fs = small_sim();
  sim::PrecursorParams params;
  params.medium_errors_before_disk_failure = 0.0;  // isolate noise
  params.link_resets_before_interconnect_failure = 0.0;
  params.timeouts_before_performance_failure = 0.0;
  params.benign_burst_per_disk_year = 0.0;
  const auto events = sim::generate_precursors(fs.fleet, fs.result, params);

  std::map<sim::PrecursorKind, std::size_t> counts;
  for (const auto& e : events) ++counts[e.kind];
  const double disk_years = fs.fleet.total_disk_exposure_years();
  EXPECT_NEAR(static_cast<double>(counts[sim::PrecursorKind::kMediumError]) / disk_years,
              params.medium_error_noise_per_disk_year,
              0.1 * params.medium_error_noise_per_disk_year);
  EXPECT_NEAR(static_cast<double>(counts[sim::PrecursorKind::kLinkReset]) / disk_years,
              params.link_reset_noise_per_disk_year,
              0.15 * params.link_reset_noise_per_disk_year);
}

TEST(Precursors, SortedInstalledAndInWindow) {
  auto fs = small_sim();
  const auto events =
      sim::generate_precursors(fs.fleet, fs.result, sim::PrecursorParams::standard());
  ASSERT_FALSE(events.empty());
  double prev = -1.0;
  for (const auto& e : events) {
    EXPECT_GE(e.time, prev);
    prev = e.time;
    EXPECT_GE(e.time, 0.0);
    EXPECT_LT(e.time, fs.fleet.horizon_seconds());
    EXPECT_TRUE(fs.fleet.disk(e.disk).installed_at(e.time));
  }
}

TEST(Precursors, BurstsPrecedeMatchingFailures) {
  auto fs = small_sim();
  sim::PrecursorParams params;
  // Noise and benign bursts off: every event is a pre-failure burst event.
  params.medium_error_noise_per_disk_year = 0.0;
  params.link_reset_noise_per_disk_year = 0.0;
  params.cmd_timeout_noise_per_disk_year = 0.0;
  params.benign_burst_per_disk_year = 0.0;
  const auto events = sim::generate_precursors(fs.fleet, fs.result, params);
  ASSERT_FALSE(events.empty());

  // Index failures by disk and kind.
  std::map<std::pair<std::uint32_t, int>, std::vector<double>> failure_times;
  for (const auto& f : fs.result.failures) {
    failure_times[{f.disk.value(), static_cast<int>(f.type)}].push_back(f.occur_time);
  }
  auto follows_failure = [&](const sim::PrecursorEvent& e, model::FailureType type) {
    const auto it = failure_times.find({e.disk.value(), static_cast<int>(type)});
    if (it == failure_times.end()) return false;
    for (const double t : it->second) {
      if (e.time <= t && t - e.time < 300.0 * 86400.0) return true;
    }
    return false;
  };
  for (const auto& e : events) {
    switch (e.kind) {
      case sim::PrecursorKind::kMediumError:
        EXPECT_TRUE(follows_failure(e, model::FailureType::kDisk));
        break;
      case sim::PrecursorKind::kLinkReset:
        EXPECT_TRUE(follows_failure(e, model::FailureType::kPhysicalInterconnect));
        break;
      case sim::PrecursorKind::kCmdTimeout:
        EXPECT_TRUE(follows_failure(e, model::FailureType::kPerformance));
        break;
    }
  }
}

TEST(Precursors, Deterministic) {
  auto fs1 = small_sim(21);
  auto fs2 = small_sim(21);
  const auto a = sim::generate_precursors(fs1.fleet, fs1.result,
                                          sim::PrecursorParams::standard());
  const auto b = sim::generate_precursors(fs2.fleet, fs2.result,
                                          sim::PrecursorParams::standard());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].disk, b[i].disk);
    EXPECT_EQ(a[i].kind, b[i].kind);
  }
}

TEST(PrecursorCodes, RoundTrip) {
  for (const auto kind : {sim::PrecursorKind::kMediumError, sim::PrecursorKind::kLinkReset,
                          sim::PrecursorKind::kCmdTimeout}) {
    const auto code = sim::code_for(kind);
    const auto back = sim::precursor_kind_of_code(code);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, kind);
    // Precursor codes must never classify as failures.
    EXPECT_FALSE(storsubsim::log::failure_type_of(storsubsim::log::code_id(code)).has_value());
  }
  EXPECT_FALSE(sim::precursor_kind_of_code("raid.config.disk.failed").has_value());
}

TEST(PrecursorLogs, WriteParseExtractRoundTrip) {
  auto fs = small_sim();
  sim::PrecursorParams params;
  params.medium_error_noise_per_disk_year = 0.1;  // keep the stream small
  params.link_reset_noise_per_disk_year = 0.05;
  params.cmd_timeout_noise_per_disk_year = 0.05;
  const auto events = sim::generate_precursors(fs.fleet, fs.result, params);
  ASSERT_FALSE(events.empty());

  storsubsim::log::LineWriter text;
  const auto lines = sim::write_precursor_logs(text, fs.fleet, events);
  EXPECT_EQ(lines, events.size());

  std::vector<storsubsim::log::LogView> records;
  const auto stats = storsubsim::log::parse_text(text.view(), records);
  EXPECT_EQ(stats.lines_parsed, events.size());

  const auto recovered = sim::extract_precursors(records);
  ASSERT_EQ(recovered.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_NEAR(recovered[i].time, events[i].time, 1e-3);
    EXPECT_EQ(recovered[i].disk, events[i].disk);
    EXPECT_EQ(recovered[i].kind, events[i].kind);
  }
}
