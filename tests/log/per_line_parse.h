// The reference parse_text is tested against: the text is split with
// std::getline and each line is judged on its own by parse_line_view, under
// the same skipped / malformed rules. It shares no splitting code with
// parse_text.
#pragma once

#include <deque>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "log/parser.h"

namespace storsubsim::log::testing {

/// Appends the lines that parse to `out`, in text order. The views alias
/// the copies kept in `lines` (a deque never moves its elements), which
/// must outlive them.
inline ParseStats parse_line_by_line(std::string_view text, std::deque<std::string>& lines,
                                     std::vector<LogView>& out) {
  ParseStats stats;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    ++stats.lines_total;
    if (line.empty() || line[0] == '#') {
      ++stats.lines_skipped;
      continue;
    }
    const std::string& kept = lines.emplace_back(line);
    LogView view;
    if (parse_line_view(kept, view)) {
      out.push_back(view);
      ++stats.lines_parsed;
    } else if (kept.find(" t=") != std::string::npos) {
      ++stats.lines_malformed;
    } else {
      ++stats.lines_skipped;
    }
  }
  return stats;
}

}  // namespace storsubsim::log::testing
