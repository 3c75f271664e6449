// Parses AutoSupport-style text logs back into structured records.
//
// The parser is deliberately forgiving: real support logs contain lines from
// every subsystem, many of which the analysis does not understand. Unknown
// or malformed lines are counted, not fatal.
//
// One result shape (docs/FORMAT.md): `parse_text` walks a retained text
// buffer — a pipeline LineWriter or a mapped log file — and yields LogViews
// whose `code`/`message` are `string_view`s into that buffer; the event
// code is additionally resolved to an interned id (log/codes.h) so
// downstream consumers never compare strings. The buffer must outlive the
// views. Owning LogRecords exist only on the write side (log/emitter.h).
#pragma once

#include <string_view>
#include <vector>

#include "log/codes.h"
#include "log/record.h"

namespace storsubsim::log {

struct ParseStats {
  std::size_t lines_total = 0;
  std::size_t lines_parsed = 0;
  std::size_t lines_skipped = 0;  ///< blank or recognizably foreign lines
  std::size_t lines_malformed = 0;  ///< looked like ours but failed to parse
};

/// A parsed line whose text fields alias the source buffer (zero-copy).
struct LogView {
  double time = 0.0;                          ///< seconds since study start
  EventCode code_id = EventCode::kUnknown;    ///< interned id (kUnknown = foreign code)
  Severity severity = Severity::kInfo;
  model::DiskId disk;
  model::SystemId system;
  std::string_view code;     ///< aliases the parsed buffer
  std::string_view message;  ///< aliases the parsed buffer
};

/// Parses one rendered line into `out` without copying text; returns false
/// if the line is not a log record (out is unspecified then).
// storsim-lint: allow(unused-export) reason=test oracle: ParseTextFuzz.BufferAndPerLinePathsAgreeUnderCorruption checks parse_text
bool parse_line_view(std::string_view line, LogView& out);

/// Parses a whole text buffer (lines separated by '\n'); appends view
/// records — aliasing `text` — to `out` in buffer order. The caller keeps
/// `text` alive for as long as the views are used.
ParseStats parse_text(std::string_view text, std::vector<LogView>& out);

}  // namespace storsubsim::log
