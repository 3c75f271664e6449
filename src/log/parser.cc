#include "log/parser.h"

#include <charconv>
#include <optional>

#include "obs/obs.h"

namespace storsubsim::log {

namespace {

/// Parses "name=value" where value is a decimal integer or '-'. The match is
/// anchored at a token boundary — start of the attribute block or preceded
/// by a space — so "sys=" can never match inside a longer attribute name
/// (e.g. a hypothetical "subsys=").
std::optional<std::uint32_t> parse_id_attr(std::string_view text, std::string_view name) {
  std::size_t pos = 0;
  for (;;) {
    pos = text.find(name, pos);
    if (pos == std::string_view::npos) return std::nullopt;
    if (pos == 0 || text[pos - 1] == ' ') break;
    pos += 1;  // mid-token hit; resume the scan after it
  }
  std::string_view rest = text.substr(pos + name.size());
  if (rest.starts_with("-")) return model::Id<model::DiskTag>::kInvalid;
  std::uint32_t value = 0;
  const auto [ptr, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), value);
  if (ec != std::errc{} || ptr == rest.data()) return std::nullopt;
  return value;
}

}  // namespace

const char* read_fixed3(const char* first, const char* last, double& out) {
  constexpr int kMaxWholeDigits = 15;
  std::uint64_t millis = 0;
  const char* p = first;
  while (p != last && p - first < kMaxWholeDigits && *p >= '0' && *p <= '9') {
    millis = millis * 10 + static_cast<std::uint64_t>(*p++ - '0');
  }
  if (p == first || last - p < 4 || *p != '.') return nullptr;
  for (int i = 1; i <= 3; ++i) {
    if (p[i] < '0' || p[i] > '9') return nullptr;
    millis = millis * 10 + static_cast<std::uint64_t>(p[i] - '0');
  }
  // Below 2^53 the integer is exact, and one correctly rounded division
  // yields the double nearest the decimal, which is what from_chars returns.
  if (millis >= (std::uint64_t{1} << 53)) return nullptr;
  out = static_cast<double>(millis) / 1000.0;
  return p + 4;
}

bool parse_line_view(std::string_view line, LogView& out) {
  // Expected shape:
  //   D0012 03:14:15 t=<seconds> [<code>:<severity>] [sys=N disk=N]: <message>
  const auto t_pos = line.find(" t=");
  if (t_pos == std::string_view::npos) return false;

  {
    const char* first = line.data() + t_pos + 3;
    const char* last = line.data() + line.size();
    // The fast read stands only where from_chars would stop too: at a space.
    const char* ptr = read_fixed3(first, last, out.time);
    if (ptr == nullptr || ptr == last || *ptr != ' ') {
      const auto parsed = std::from_chars(first, last, out.time);
      if (parsed.ec != std::errc{}) return false;
      ptr = parsed.ptr;
    }
    line = std::string_view(ptr, static_cast<std::size_t>(last - ptr));
  }

  const auto code_open = line.find('[');
  const auto code_close = line.find(']');
  if (code_open == std::string_view::npos || code_close == std::string_view::npos ||
      code_close <= code_open) {
    return false;
  }
  {
    std::string_view code_sev = line.substr(code_open + 1, code_close - code_open - 1);
    const auto colon = code_sev.rfind(':');
    if (colon == std::string_view::npos) return false;
    out.code = code_sev.substr(0, colon);
    out.code_id = code_id(out.code);
    const auto sev = parse_severity(code_sev.substr(colon + 1));
    if (!sev) return false;
    out.severity = *sev;
  }

  std::string_view after = line.substr(code_close + 1);
  const auto attr_open = after.find('[');
  const auto attr_close = after.find(']');
  if (attr_open == std::string_view::npos || attr_close == std::string_view::npos ||
      attr_close <= attr_open) {
    return false;
  }
  {
    std::string_view attrs = after.substr(attr_open + 1, attr_close - attr_open - 1);
    const auto sys = parse_id_attr(attrs, "sys=");
    const auto disk = parse_id_attr(attrs, "disk=");
    if (!sys || !disk) return false;
    out.system = model::SystemId(*sys);
    out.disk = model::DiskId(*disk);
  }

  std::string_view message = after.substr(attr_close + 1);
  if (message.starts_with(": ")) message.remove_prefix(2);
  out.message = message;
  return true;
}

ParseStats parse_text(std::string_view text, std::vector<LogView>& out) {
  ParseStats stats;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, (nl == std::string_view::npos ? text.size() : nl) - pos);

    ++stats.lines_total;
    if (line.empty() || line[0] == '#') {
      ++stats.lines_skipped;
    } else {
      // Lines without our "t=" marker are foreign (other subsystems, console
      // noise); lines with the marker that still fail to parse are malformed.
      LogView view;
      if (parse_line_view(line, view)) {
        out.push_back(view);
        ++stats.lines_parsed;
      } else if (line.find(" t=") != std::string_view::npos) {
        ++stats.lines_malformed;
      } else {
        ++stats.lines_skipped;
      }
    }

    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  STORSIM_OBS_COUNTER(c_lines, "log.parse.lines",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_lines, stats.lines_total);
  STORSIM_OBS_COUNTER(c_parsed, "log.parse.records",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_parsed, stats.lines_parsed);
  return stats;
}

}  // namespace storsubsim::log
