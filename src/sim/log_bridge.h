// Bridges simulator output to the AutoSupport-style log pipeline: renders
// every simulated failure as its full propagation chain (and the fleet as a
// configuration snapshot), completing the end-to-end path
//   simulate -> emit text logs -> parse -> classify -> analyze
// that mirrors how the paper's data was produced and consumed.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "log/line_writer.h"
#include "log/parser.h"
#include "model/fleet.h"
#include "sim/precursors.h"
#include "sim/simulator.h"

namespace storsubsim::sim {

/// Appends the propagation-chain log lines for all failures, in detection
/// order, to a reusable text buffer — the pipeline hot path; per-failure
/// device address and serial are formatted on the stack, so steady-state
/// emission performs no allocation. Returns the number of lines written.
std::size_t write_failure_logs(log::LineWriter& out, const model::Fleet& fleet,
                               std::span<const SimFailure> failures);

/// Renders the "adapter.target" device address used in log prose.
std::string device_address(const model::Fleet& fleet, model::DiskId disk);

/// Log message code used for a precursor kind (non-terminal: the failure
/// classifier ignores these records).
// storsim-lint: allow(unused-export) reason=test oracle: PrecursorCodes.RoundTrip checks failure_type_of never classifies them
std::string_view code_for(PrecursorKind kind);

/// Inverse of `code_for`; nullopt for non-precursor codes.
// storsim-lint: allow(unused-export) reason=test oracle: PrecursorCodes.RoundTrip pins the code table extract_precursors reads
std::optional<PrecursorKind> precursor_kind_of_code(std::string_view code);

/// Appends one log line per precursor event. Returns lines written.
std::size_t write_precursor_logs(log::LineWriter& out, const model::Fleet& fleet,
                                 std::span<const PrecursorEvent> events);

/// Recovers precursor events from parsed log views (the read side of
/// `write_precursor_logs`). Non-precursor records are skipped.
std::vector<PrecursorEvent> extract_precursors(std::span<const log::LogView> records);

}  // namespace storsubsim::sim
