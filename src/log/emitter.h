// Renders failure events as AutoSupport-style text logs.
//
// For each storage subsystem failure the emitter writes the propagation
// chain a real system would log — lower-layer precursor events followed by
// the RAID-layer terminal event (paper Figure 3). The terminal line carries
// machine-readable attributes (disk/system ids) so the parser can rebuild
// the analysis dataset without heuristics, while the prose stays faithful
// to the look of the original logs.
//
// Two emission paths share one chain table (docs/FORMAT.md):
//   * the buffer fast path — `emit_chain` formats every line in place into
//     a reusable LineWriter from static message templates, allocation-free
//     at steady state; this is what the dataset pipeline uses;
//   * the record path — `propagation_chain` materializes owning LogRecords
//     for callers that inspect or reorder individual events (tests, the
//     forensics example, precursor logs).
// Reading goes one way only: `parse_text` yields LogViews of the rendered
// text (log/parser.h); no owning record is ever parsed back.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "log/line_writer.h"
#include "log/record.h"
#include "model/enums.h"
#include "model/ids.h"

namespace storsubsim::log {

/// A failure occurrence the emitter knows how to narrate.
struct EmittableFailure {
  double detect_time = 0.0;
  model::FailureType type = model::FailureType::kDisk;
  model::DiskId disk;
  model::SystemId system;
  /// Device address rendered as "adapter.target", e.g. "8.24".
  std::string device_address = "0.0";
  std::string serial;
};

/// The view-based flavor of EmittableFailure for the buffer fast path: the
/// caller keeps the address/serial bytes alive for the duration of the call
/// (a stack scratch buffer suffices — nothing is retained).
struct FailureLineInput {
  double detect_time = 0.0;
  model::FailureType type = model::FailureType::kDisk;
  model::DiskId disk;
  model::SystemId system;
  std::string_view device_address = "0.0";
  std::string_view serial;
};

/// Appends the full rendered propagation chain (newline-terminated lines)
/// for one failure to `out`. Returns the number of lines appended.
std::size_t emit_chain(LineWriter& out, const FailureLineInput& failure);

/// Builds the full record chain (precursors + RAID terminal) for a failure.
/// Precursor timestamps precede `detect_time` by seconds to minutes, in the
/// order the layers would report them. Renders byte-identically to
/// `emit_chain` (both read the same static chain table).
std::vector<LogRecord> propagation_chain(const EmittableFailure& failure);

/// Appends one record as a single text line (no trailing newline):
///   <ts> [<code>:<severity>] [sys=N disk=N] <message>
void render_line_to(LineWriter& out, const LogRecord& record);

/// Convenience wrapper over `render_line_to` returning an owning string.
std::string render_line(const LogRecord& record);

/// Pretty wall-clock rendering of a sim timestamp ("Sun Jul 23 05:43:36").
std::string render_timestamp(double sim_seconds);

/// Streams whole propagation chains for a batch of failures, in time order.
class LogEmitter {
 public:
  explicit LogEmitter(std::ostream& out) : out_(&out) {}

  /// Emits the propagation chain for one failure.
  void emit(const EmittableFailure& failure);

  /// Emits a single already-built record.
  void emit(const LogRecord& record);

 private:
  std::ostream* out_;
  LineWriter scratch_;
};

}  // namespace storsubsim::log
