#include "core/analysis_request.h"

#include "core/analysis_render.h"
#include "model/enums.h"
#include "model/time.h"

namespace storsubsim::core {

std::string_view endpoint_name(StatisticId id) noexcept {
  switch (id) {
    case StatisticId::kAfrTotal: return "afr";
    case StatisticId::kAfrByClass: return "afr_by_class";
    case StatisticId::kTbf: return "tbf";
    case StatisticId::kCorrelation: return "correlation";
    case StatisticId::kLifetime: return "lifetime";
    case StatisticId::kQuery: return "query";
  }
  return "unknown";
}

std::string_view report_name(StatisticId id) noexcept {
  switch (id) {
    case StatisticId::kAfrTotal: return "afr-total";
    case StatisticId::kAfrByClass: return "afr";
    case StatisticId::kTbf: return "burstiness";
    case StatisticId::kCorrelation: return "correlation";
    case StatisticId::kLifetime: return "lifetime";
    case StatisticId::kQuery: return "query";
  }
  return "unknown";
}

std::optional<StatisticId> statistic_from_endpoint(std::string_view name) noexcept {
  for (const StatisticId id : kAllStatistics) {
    if (endpoint_name(id) == name) return id;
  }
  return std::nullopt;
}

std::optional<StatisticId> statistic_from_report(std::string_view name) noexcept {
  for (const StatisticId id : kAllStatistics) {
    if (report_name(id) == name) return id;
  }
  return std::nullopt;
}

namespace {

RequestError make_request_error(std::string_view code, std::string_view message) {
  RequestError err;
  err.code.assign(code);
  err.message.assign(message);
  return err;
}

}  // namespace

RequestError AnalysisRequest::from_params(StatisticId statistic,
                                          const RequestParams& params, bool csv,
                                          AnalysisRequest* out) {
  AnalysisRequest request;
  request.statistic = statistic;
  request.csv = csv;
  if (statistic != StatisticId::kQuery) {
    if (!params.empty()) {
      return make_request_error("bad-request",
                                "params are only valid for the query endpoint");
    }
    *out = request;
    return RequestError{};
  }

  // The historical `storsubsim store query` flag handling, token for token —
  // every front end must reject exactly what the offline CLI rejects, with
  // the same wording.
  if (!params.type.empty()) {
    const auto parsed = model::parse_failure_type(params.type);
    if (!parsed) {
      std::string message("unknown failure type '");
      message.append(params.type).append("'");
      return make_request_error("bad-param", message);
    }
    request.query.failure_type = parsed;
  }
  if (!params.cls.empty()) {
    const auto parsed = model::parse_system_class(params.cls);
    if (!parsed) {
      std::string message("unknown system class '");
      message.append(params.cls).append("'");
      return make_request_error("bad-param", message);
    }
    request.query.system_class = parsed;
  }
  if (!params.family.empty()) {
    if (params.family.size() != 1) {
      std::string message("disk family must be a single letter, got '");
      message.append(params.family).append("'");
      return make_request_error("bad-param", message);
    }
    request.query.disk_family = params.family[0];
  }
  if (params.from_days.has_value()) {
    request.query.time_begin = *params.from_days * model::kSecondsPerDay;
  }
  if (params.to_days.has_value()) {
    request.query.time_end = *params.to_days * model::kSecondsPerDay;
  }
  if (params.group_by == "class") {
    request.query.group_by = store::Query::GroupBy::kSystemClass;
  } else if (params.group_by == "type") {
    request.query.group_by = store::Query::GroupBy::kFailureType;
  } else if (params.group_by == "family") {
    request.query.group_by = store::Query::GroupBy::kDiskFamily;
  } else if (!params.group_by.empty()) {
    std::string message("unknown group-by '");
    message.append(params.group_by).append("' (want class|type|family)");
    return make_request_error("bad-param", message);
  }
  *out = request;
  return RequestError{};
}

std::string render_statistic(const Source& source, const AnalysisRequest& request) {
  switch (request.statistic) {
    case StatisticId::kAfrTotal: return render_afr_total(source, request.csv);
    case StatisticId::kAfrByClass: return render_afr_by_class(source, request.csv);
    case StatisticId::kTbf: return render_tbf(source, request.csv);
    case StatisticId::kCorrelation: return render_correlation(source, request.csv);
    case StatisticId::kLifetime: return render_lifetime(source, request.csv);
    case StatisticId::kQuery: {
      store::QueryResult result;  // stays empty for a Dataset-backed source
      if (const store::ShardStore* shards = source.shards()) {
        result = store::run_query(*shards, request.query);
      }
      return render_query_result(result, request.csv);
    }
  }
  return {};
}

}  // namespace storsubsim::core
