// The one place analysis results become report bytes.
//
// `storsubsim analyze`, `storsubsim store query`, and every storsimd serve
// endpoint render through these functions, so "the daemon answers
// byte-identically to offline analyze" is true by construction: both sides
// call the same renderer over the same core::Source. Each function returns
// the exact bytes the CLI prints to stdout (text table or CSV).
#pragma once

#include <string>

#include "core/source.h"
#include "store/query.h"

namespace storsubsim::core {

/// Whole-cohort AFR, one row (`analyze --report afr-total`, endpoint `afr`).
std::string render_afr_total(const Source& source, bool csv);

/// AFR by system class, paper Figure 4 (`analyze --report afr`, endpoint
/// `afr_by_class`).
std::string render_afr_by_class(const Source& source, bool csv);

/// Time-between-failures table, paper Figure 9 (`analyze --report
/// burstiness`, endpoint `tbf`).
std::string render_tbf(const Source& source, bool csv);

/// Correlation P(1)/P(2) table, paper Figure 10 (`analyze --report
/// correlation`, endpoint `correlation`).
std::string render_correlation(const Source& source, bool csv);

/// Kaplan-Meier survival summary + age-binned hazard (`analyze --report
/// lifetime`, endpoint `lifetime`): two tables, concatenated.
std::string render_lifetime(const Source& source, bool csv);

/// RAID multi-failure incidents against the independence model, disk-only
/// and all-types at 6, 24 and 72 h windows (`analyze --report
/// vulnerability`, endpoint `vulnerability`).
std::string render_vulnerability(const Source& source, bool csv);

/// One row per cohort failure in (time, disk, type) order, joined with its
/// disk, system, shelf and RAID group (`analyze --report events`) — the raw
/// export for R/pandas/duckdb.
std::string render_events(const Source& source, bool csv);

/// Group table of a store query (`store query`, endpoint `query`). The scan
/// accounting (stats) goes to stderr in the CLI and is not part of these
/// bytes.
std::string render_query_result(const store::QueryResult& result, bool csv);

}  // namespace storsubsim::core
