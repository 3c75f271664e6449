// Structured log records — the unit the emitter writes. The parser reads
// the same fields back as views of the text (log/parser.h).
//
// The storage systems studied in the paper log informational and error
// events on each layer as a failure propagates upward (Fibre Channel ->
// SCSI -> RAID; paper Figure 3). We reproduce that shape: every record
// carries a layer-qualified message code like "fci.device.timeout" or
// "raid.config.filesystem.disk.missing", a severity, a timestamp, and the
// affected device.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "model/ids.h"

namespace storsubsim::log {

enum class Severity : std::uint8_t { kInfo, kWarning, kError };

std::string_view to_string(Severity s);
std::optional<Severity> parse_severity(std::string_view s);

struct LogRecord {
  double time = 0.0;  ///< seconds since study start
  std::string code;   ///< e.g. "scsi.cmd.selectionTimeout"
  Severity severity = Severity::kInfo;
  model::DiskId disk;      ///< affected disk (invalid if none)
  model::SystemId system;  ///< reporting system
  std::string message;     ///< free-form human text
};

}  // namespace storsubsim::log
