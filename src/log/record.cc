#include "log/record.h"

namespace storsubsim::log {

std::string_view to_string(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

std::optional<Severity> parse_severity(std::string_view s) {
  if (s == "info") return Severity::kInfo;
  if (s == "warning") return Severity::kWarning;
  if (s == "error") return Severity::kError;
  return std::nullopt;
}

}  // namespace storsubsim::log
