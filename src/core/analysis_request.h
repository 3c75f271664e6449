// core::AnalysisRequest — the one typed way to name "a statistic" and "an
// analysis request" across every front end.
//
// Before this header, three hand-rolled parsers validated the same knobs:
// `storsubsim analyze`/`store query` flag handling, the storsimd JSON body
// validation (serve/protocol.cc), and ad-hoc call sites in the benches. Each
// had its own error wording, so "the daemon rejects exactly what the offline
// CLI rejects" was a convention, not a property. AnalysisRequest collapses
// the fork:
//
//   * StatisticId names each analysis statistic once, with both of its
//     historical spellings (CLI `--report` name vs wire endpoint name —
//     they differ for historical reasons and both are load-bearing).
//   * RequestParams carries the raw, still-unparsed parameter strings
//     exactly as they travel on the wire or arrive as flags.
//   * AnalysisRequest::from_params is the single validator: CLI flags and
//     serve JSON bodies both funnel through it, so a bad parameter yields
//     byte-identical wording offline and over the socket (regression-tested
//     both ways in tests/tools/cli_test.cc and tests/serve/serve_test.cc).
//   * render_statistic is the single renderer entry point: `analyze`, the
//     daemon, and the replication engine all produce report bytes through
//     it, which is what makes "daemon == offline, byte for byte" true by
//     construction.
//
// The pre-Source per-backend analysis overloads (compute_afr(Dataset&), ...)
// were retired with this redesign; storsim_lint's analysis-overload rule
// keeps them from coming back (docs/static-analysis.md).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/source.h"
#include "store/query.h"

namespace storsubsim::core {

/// Every statistic the unified analysis API can be asked for. kQuery is the
/// filtered/grouped store scan; the others are whole-cohort reports.
enum class StatisticId : std::uint8_t {
  kAfrTotal,    ///< whole-cohort AFR, one row
  kAfrByClass,  ///< AFR by system class (paper Figure 4)
  kTbf,         ///< time-between-failures burstiness (paper Figure 9)
  kCorrelation, ///< P(1)/P(2) correlation factors (paper Figure 10)
  kLifetime,    ///< Kaplan-Meier survival + age-binned hazard
  kQuery,       ///< predicate/group-by scan over a columnar store
};

inline constexpr std::array<StatisticId, 6> kAllStatistics = {
    StatisticId::kAfrTotal, StatisticId::kAfrByClass,  StatisticId::kTbf,
    StatisticId::kCorrelation, StatisticId::kLifetime, StatisticId::kQuery,
};

/// Wire spelling (storsimd endpoint names): "afr", "afr_by_class", "tbf",
/// "correlation", "lifetime", "query".
// storsim-lint: allow(unused-export) reason=docs/API.md entry (the StatisticId spellings)
std::string_view endpoint_name(StatisticId id) noexcept;

/// CLI spelling (`analyze --report` names): "afr-total", "afr", "burstiness",
/// "correlation", "lifetime", "query". Note the historical mismatch: the
/// report called "afr" is the by-class table (endpoint "afr_by_class"), and
/// the endpoint called "afr" is the total (report "afr-total").
std::string_view report_name(StatisticId id) noexcept;

std::optional<StatisticId> statistic_from_endpoint(std::string_view name) noexcept;
std::optional<StatisticId> statistic_from_report(std::string_view name) noexcept;

/// Raw request parameters exactly as they travel on the wire or arrive as
/// CLI flags. Strings stay unparsed here so the client renders exactly what
/// the user typed and every front end applies the same validation.
struct RequestParams {
  std::string type;      ///< failure type name; empty = no predicate
  std::string cls;       ///< system class name
  std::string family;    ///< single-letter disk family
  std::string group_by;  ///< "class" | "type" | "family"; empty = none
  std::optional<double> from_days;
  std::optional<double> to_days;

  bool empty() const noexcept {
    return type.empty() && cls.empty() && family.empty() && group_by.empty() &&
           !from_days.has_value() && !to_days.has_value();
  }
};

/// Typed outcome of validating a request. `code` is one of the storsimd wire
/// error codes ("bad-param", "bad-request", "unknown-endpoint", ...); the
/// message is the exact text the offline CLI prints. Empty code = success.
struct RequestError {
  std::string code;
  std::string message;

  bool ok() const noexcept { return code.empty(); }
};

/// A fully validated analysis request: the typed statistic plus, for kQuery,
/// the typed store::Query the raw params parsed into.
struct AnalysisRequest {
  StatisticId statistic = StatisticId::kAfrTotal;
  bool csv = false;
  store::Query query;  ///< populated for kQuery; default (match-all) otherwise

  /// The single validator. Converts raw params into a typed request with the
  /// same day-to-second scaling and the same error wording everywhere:
  /// "unknown failure type 'x'", "unknown system class 'x'", "disk family
  /// must be a single letter, got 'x'", "unknown group-by 'x' (want
  /// class|type|family)". Non-query statistics reject params outright
  /// ("params are only valid for the query endpoint").
  [[nodiscard]] static RequestError from_params(StatisticId statistic,
                                                const RequestParams& params, bool csv,
                                                AnalysisRequest* out);
};

/// The single renderer entry point: the exact bytes `storsubsim analyze` /
/// `store query` print and every storsimd endpoint returns, for any
/// statistic. kQuery requests run their scan first; over a Dataset-backed
/// source, which has no columns to scan, they render the empty result.
std::string render_statistic(const Source& source, const AnalysisRequest& request);

}  // namespace storsubsim::core
