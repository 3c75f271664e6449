// Observability layer: registry merge semantics, the thread-count
// determinism contract, the Chrome trace exporter, and the run-manifest
// schema — all validated through obs::parse_json, the same parser
// tools/run_checks.sh uses on the emitted artifacts.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/source.h"
#include "model/fleet_config.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "util/parallel.h"

namespace core = storsubsim::core;
namespace model = storsubsim::model;
namespace obs = storsubsim::obs;
namespace util = storsubsim::util;

namespace {

/// Each TEST runs in its own process (gtest_discover_tests), so resetting the
/// process-global registry/trace state here cannot race another test.
void reset_obs_state() {
  obs::registry().reset();
  obs::set_tracing_enabled(false);
}

/// The events the trace currently buffers, as trace_json() renders them.
std::vector<obs::JsonValue> traced_events() {
  std::string error;
  const auto parsed = obs::parse_json(obs::trace_json(), &error);
  EXPECT_TRUE(parsed.has_value()) << error;
  const obs::JsonValue* events = parsed ? parsed->find("traceEvents") : nullptr;
  return events != nullptr ? events->array : std::vector<obs::JsonValue>{};
}

}  // namespace

// obs::now_seconds() is the tree's single wall-clock read; spans, traces
// and bench deltas all assume it never runs backwards.
TEST(MonotonicSeconds, NeverDecreases) {
  double prev = obs::now_seconds();
  for (int i = 0; i < 1000; ++i) {
    const double now = obs::now_seconds();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(Registry, CounterSumsAcrossWorkerShards) {
  reset_obs_state();
  util::set_thread_count(4);
  constexpr std::size_t kItems = 10000;
  obs::Counter counter = obs::registry().counter("test.items_processed");
  util::parallel_for(kItems, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) counter.add(1);
  });
  util::set_thread_count(0);

  const auto snapshot = obs::registry().snapshot();
  const auto* metric = snapshot.find("test.items_processed");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->kind, obs::Kind::kCounter);
  EXPECT_EQ(metric->value, kItems);
}

TEST(Registry, ReregistrationReturnsTheSameSlot) {
  reset_obs_state();
  obs::Counter a = obs::registry().counter("test.same_name");
  obs::Counter b = obs::registry().counter("test.same_name");
  a.add(3);
  b.add(4);
  const auto snapshot = obs::registry().snapshot();
  const auto* metric = snapshot.find("test.same_name");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->value, 7u);
}

TEST(Registry, GaugeTakesTheMaxAndIsSchedulingDependent) {
  reset_obs_state();
  obs::Gauge gauge = obs::registry().gauge("test.depth_max");
  gauge.update_max(3);
  gauge.update_max(11);
  gauge.update_max(5);
  const auto snapshot = obs::registry().snapshot();
  const auto* metric = snapshot.find("test.depth_max");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->kind, obs::Kind::kGauge);
  EXPECT_EQ(metric->value, 11u);
  EXPECT_EQ(metric->stability, obs::Stability::kSchedulingDependent);
  // The deterministic view (what the determinism test pins) excludes it.
  EXPECT_EQ(snapshot.to_text(/*deterministic_only=*/true).find("test.depth_max"),
            std::string::npos);
  EXPECT_NE(snapshot.to_text().find("test.depth_max"), std::string::npos);
}

TEST(Registry, HistogramBucketsByPowerOfTwo) {
  reset_obs_state();
  obs::Histogram hist = obs::registry().histogram("test.bytes");
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 1024ull}) hist.observe(v);
  const auto snapshot = obs::registry().snapshot();
  const auto* metric = snapshot.find("test.bytes");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->kind, obs::Kind::kHistogram);
  EXPECT_EQ(metric->value, 5u);    // observation count
  EXPECT_EQ(metric->sum, 1030u);   // sum of samples
  std::uint64_t bucket_total = 0;
  for (const auto b : metric->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 5u);
  ASSERT_FALSE(metric->buckets.empty());
  EXPECT_EQ(metric->buckets[0], 1u);  // bucket 0 counts the zero sample
}

TEST(Registry, ResetZeroesValuesButKeepsRegistrations) {
  reset_obs_state();
  obs::Counter counter = obs::registry().counter("test.reset_me");
  counter.add(9);
  obs::registry().reset();
  const auto zeroed = obs::registry().snapshot();
  const auto* metric = zeroed.find("test.reset_me");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->value, 0u);
  counter.add(2);  // the pre-reset handle still works
  const auto after = obs::registry().snapshot();
  EXPECT_EQ(after.find("test.reset_me")->value, 2u);
}

TEST(Registry, SnapshotJsonParses) {
  reset_obs_state();
  obs::registry().counter("test.json_a").add(1);
  obs::registry().histogram("test.json_b").observe(42);
  std::string error;
  const auto parsed = obs::parse_json(obs::registry().snapshot().to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_TRUE(parsed->type == obs::JsonValue::Type::kArray);
}

// The core contract: deterministic metrics are a pure function of
// (seed, scale, inputs) — the merged snapshot is identical at any worker
// count, exactly like the analysis output itself.
TEST(Determinism, DeterministicSnapshotIdenticalAcrossThreadCounts) {
  const auto config = model::standard_fleet_config(0.02, 20080226);
  std::vector<std::string> snapshots;
  for (const unsigned threads : {1u, 4u, 8u}) {
    reset_obs_state();
    util::set_thread_count(threads);
    const auto sd = core::simulate_and_analyze(config);
    ASSERT_GT(core::Source(sd.dataset).event_records(), 0u);
    snapshots.push_back(
        obs::registry().snapshot().to_text(/*deterministic_only=*/true));
  }
  util::set_thread_count(0);
  EXPECT_FALSE(snapshots[0].empty());
  EXPECT_NE(snapshots[0].find("sim.failures"), std::string::npos);
  EXPECT_NE(snapshots[0].find("log.parse.lines"), std::string::npos);
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[0], snapshots[2]);
}

TEST(Span, StopReturnsElapsedOnceAndIsIdempotent) {
  obs::Span span("test.span");
  EXPECT_GE(span.seconds(), 0.0);
  const double elapsed = span.stop();
  EXPECT_GE(elapsed, 0.0);
  EXPECT_EQ(span.stop(), 0.0);  // second stop records nothing
}

TEST(Trace, DisabledByDefaultRecordsNothing) {
  reset_obs_state();
  ASSERT_FALSE(obs::tracing_enabled());
  const std::size_t before = traced_events().size();
  obs::Span span("test.untraced");
  span.stop();
  EXPECT_EQ(traced_events().size(), before);
}

TEST(Trace, RecordsSpansAndEmitsValidChromeTraceJson) {
  reset_obs_state();
  const std::size_t before = traced_events().size();
  obs::set_tracing_enabled(true);
  {
    obs::Span outer("test.outer");
    obs::Span inner("test.inner");
    inner.stop();
  }
  obs::set_tracing_enabled(false);

  std::string error;
  const auto parsed = obs::parse_json(obs::trace_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_TRUE(parsed->is_object());
  const auto* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->type == obs::JsonValue::Type::kArray);
  ASSERT_EQ(events->array.size(), before + 2);
  bool saw_inner = false;
  for (const auto& event : events->array) {
    ASSERT_TRUE(event.is_object());
    const auto* name = event.find("name");
    ASSERT_NE(name, nullptr);
    ASSERT_TRUE(name->is_string());
    if (name->string == "test.inner") saw_inner = true;
    const auto* phase = event.find("ph");
    ASSERT_NE(phase, nullptr);
    EXPECT_EQ(phase->string, "X");  // complete events
    EXPECT_NE(event.find("ts"), nullptr);
    EXPECT_NE(event.find("dur"), nullptr);
    EXPECT_NE(event.find("tid"), nullptr);
  }
  EXPECT_TRUE(saw_inner);
}

TEST(Manifest, SchemaRoundTripsThroughTheValidator) {
  reset_obs_state();
  obs::registry().counter("test.manifest_counter").add(5);

  obs::RunManifest manifest;
  manifest.tool = "obs_test";
  manifest.seed = 20080226;
  manifest.scale = 0.05;
  manifest.threads = 4;
  manifest.info.emplace_back("input", "fleet.log");
  manifest.info.emplace_back("report", "afr \"quoted\"");  // escaping
  manifest.numbers.emplace_back("wall_seconds", 1.25);

  std::string error;
  const auto parsed = obs::parse_json(obs::manifest_json(manifest), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_TRUE(parsed->is_object());
  const auto* version = parsed->find("storsubsim_manifest");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->number, 1.0);
  EXPECT_EQ(parsed->find("tool")->string, "obs_test");
  EXPECT_EQ(parsed->find("seed")->number, 20080226.0);
  EXPECT_EQ(parsed->find("scale")->number, 0.05);
  EXPECT_EQ(parsed->find("threads")->number, 4.0);
  ASSERT_NE(parsed->find("git_describe"), nullptr);

  const auto* info = parsed->find("info");
  ASSERT_NE(info, nullptr);
  ASSERT_TRUE(info->is_object());
  EXPECT_EQ(info->find("input")->string, "fleet.log");
  EXPECT_EQ(info->find("report")->string, "afr \"quoted\"");

  const auto* numbers = parsed->find("numbers");
  ASSERT_NE(numbers, nullptr);
  EXPECT_EQ(numbers->find("wall_seconds")->number, 1.25);

  const auto* metrics = parsed->find("metrics");
  ASSERT_NE(metrics, nullptr);  // include_metrics defaults on
  ASSERT_TRUE(metrics->type == obs::JsonValue::Type::kArray);

  manifest.include_metrics = false;
  const auto without = obs::parse_json(obs::manifest_json(manifest));
  ASSERT_TRUE(without.has_value());
  EXPECT_EQ(without->find("metrics"), nullptr);
}

TEST(Json, ParserAcceptsStrictJsonAndRejectsGarbage) {
  ASSERT_TRUE(obs::parse_json(R"({"a": [1, 2.5, -3e2], "b": "x\ny", "c": null})").has_value());
  EXPECT_FALSE(obs::parse_json("{\"a\": 1} trailing").has_value());
  EXPECT_FALSE(obs::parse_json("{\"a\": }").has_value());
  EXPECT_FALSE(obs::parse_json("").has_value());
  std::string error;
  EXPECT_FALSE(obs::parse_json("[1,", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}
