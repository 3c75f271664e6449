// Tests for the unified typed AnalysisRequest API: the name tables (both
// historical spellings), the single validator's exact error wordings, the
// query-parameter conversion semantics, and the render_statistic entry point
// matching the per-statistic renderers byte for byte.
#include <gtest/gtest.h>

#include "core/analysis_render.h"
#include "core/analysis_request.h"
#include "core/pipeline.h"
#include "model/fleet_config.h"
#include "model/time.h"
#include "sim/simulator.h"

namespace core = storsubsim::core;
namespace model = storsubsim::model;
namespace sim = storsubsim::sim;
namespace store = storsubsim::store;

namespace {

core::Dataset small_dataset() {
  const auto simulation = sim::simulate_fleet(model::standard_fleet_config(0.02, 7));
  return core::dataset_in_memory(simulation.fleet, simulation.result);
}

core::RequestError validate(core::StatisticId id, const core::RequestParams& params) {
  core::AnalysisRequest request;
  return core::AnalysisRequest::from_params(id, params, false, &request);
}

}  // namespace

TEST(StatisticNames, EndpointAndReportSpellingsRoundTrip) {
  for (const core::StatisticId id : core::kAllStatistics) {
    const auto via_endpoint = core::statistic_from_endpoint(core::endpoint_name(id));
    ASSERT_TRUE(via_endpoint.has_value()) << core::endpoint_name(id);
    EXPECT_EQ(*via_endpoint, id);
    const auto via_report = core::statistic_from_report(core::report_name(id));
    ASSERT_TRUE(via_report.has_value()) << core::report_name(id);
    EXPECT_EQ(*via_report, id);
  }
}

TEST(StatisticNames, HistoricalAfrMismatchIsPreserved) {
  // The report called "afr" is the by-class table; the endpoint called "afr"
  // is the total. Both spellings are load-bearing.
  EXPECT_EQ(core::statistic_from_report("afr"), core::StatisticId::kAfrByClass);
  EXPECT_EQ(core::statistic_from_endpoint("afr"), core::StatisticId::kAfrTotal);
  EXPECT_EQ(core::statistic_from_report("afr-total"), core::StatisticId::kAfrTotal);
  EXPECT_EQ(core::statistic_from_endpoint("afr_by_class"), core::StatisticId::kAfrByClass);
  EXPECT_EQ(core::statistic_from_report("burstiness"), core::StatisticId::kTbf);
  EXPECT_EQ(core::statistic_from_endpoint("tbf"), core::StatisticId::kTbf);
}

TEST(StatisticNames, UnknownSpellingsAreRejected) {
  EXPECT_FALSE(core::statistic_from_endpoint("afr-total").has_value());
  EXPECT_FALSE(core::statistic_from_report("afr_by_class").has_value());
  EXPECT_FALSE(core::statistic_from_endpoint("").has_value());
  EXPECT_FALSE(core::statistic_from_report("bogus").has_value());
}

TEST(FromParams, ValidQueryParamsConvertWithDayScaling) {
  core::RequestParams params;
  params.type = "disk";
  params.cls = "near-line";
  params.family = "h";
  params.group_by = "class";
  params.from_days = 10.0;
  params.to_days = 20.0;
  core::AnalysisRequest request;
  const auto err =
      core::AnalysisRequest::from_params(core::StatisticId::kQuery, params, true, &request);
  ASSERT_TRUE(err.ok()) << err.message;
  EXPECT_EQ(request.statistic, core::StatisticId::kQuery);
  EXPECT_TRUE(request.csv);
  ASSERT_TRUE(request.query.failure_type.has_value());
  EXPECT_EQ(*request.query.failure_type, model::FailureType::kDisk);
  ASSERT_TRUE(request.query.system_class.has_value());
  EXPECT_EQ(*request.query.system_class, model::SystemClass::kNearLine);
  ASSERT_TRUE(request.query.disk_family.has_value());
  EXPECT_EQ(*request.query.disk_family, 'h');
  EXPECT_EQ(request.query.group_by, store::Query::GroupBy::kSystemClass);
  ASSERT_TRUE(request.query.time_begin.has_value());
  EXPECT_DOUBLE_EQ(*request.query.time_begin, 10.0 * model::kSecondsPerDay);
  ASSERT_TRUE(request.query.time_end.has_value());
  EXPECT_DOUBLE_EQ(*request.query.time_end, 20.0 * model::kSecondsPerDay);
}

TEST(FromParams, ErrorWordingsAreTheSharedOnes) {
  // These strings are the cross-front-end contract: the CLI prints them and
  // the daemon returns them, byte for byte (cli_test / serve_test cover the
  // transport ends; this pins the source of truth).
  core::RequestParams params;
  params.type = "gremlin";
  auto err = validate(core::StatisticId::kQuery, params);
  EXPECT_EQ(err.code, "bad-param");
  EXPECT_EQ(err.message, "unknown failure type 'gremlin'");

  params = {};
  params.cls = "midrange";
  err = validate(core::StatisticId::kQuery, params);
  EXPECT_EQ(err.code, "bad-param");
  EXPECT_EQ(err.message, "unknown system class 'midrange'");

  params = {};
  params.family = "hh";
  err = validate(core::StatisticId::kQuery, params);
  EXPECT_EQ(err.code, "bad-param");
  EXPECT_EQ(err.message, "disk family must be a single letter, got 'hh'");

  params = {};
  params.group_by = "shelf";
  err = validate(core::StatisticId::kQuery, params);
  EXPECT_EQ(err.code, "bad-param");
  EXPECT_EQ(err.message, "unknown group-by 'shelf' (want class|type|family)");
}

TEST(FromParams, NonQueryStatisticsRejectParams) {
  core::RequestParams params;
  params.type = "disk";
  for (const core::StatisticId id : core::kAllStatistics) {
    if (id == core::StatisticId::kQuery) continue;
    const auto err = validate(id, params);
    EXPECT_EQ(err.code, "bad-request") << core::endpoint_name(id);
    EXPECT_EQ(err.message, "params are only valid for the query endpoint");
  }
  // But empty params are fine everywhere.
  for (const core::StatisticId id : core::kAllStatistics) {
    EXPECT_TRUE(validate(id, core::RequestParams{}).ok()) << core::endpoint_name(id);
  }
}

TEST(RenderStatistic, MatchesThePerStatisticRenderersByteForByte) {
  const core::Dataset dataset = small_dataset();
  const core::Source source = dataset;
  const struct {
    core::StatisticId id;
    std::string expected;
  } cases[] = {
      {core::StatisticId::kAfrTotal, core::render_afr_total(source, false)},
      {core::StatisticId::kAfrByClass, core::render_afr_by_class(source, false)},
      {core::StatisticId::kTbf, core::render_tbf(source, false)},
      {core::StatisticId::kCorrelation, core::render_correlation(source, false)},
      {core::StatisticId::kLifetime, core::render_lifetime(source, false)},
  };
  for (const auto& c : cases) {
    core::AnalysisRequest request;
    ASSERT_TRUE(
        core::AnalysisRequest::from_params(c.id, core::RequestParams{}, false, &request).ok());
    EXPECT_EQ(core::render_statistic(source, request), c.expected)
        << core::endpoint_name(c.id);
  }
}

