// analysis-overload: the unified-analysis-API guard.
//
// The AnalysisRequest redesign (docs/API.md) retired the pre-Source
// per-backend analysis entry points — compute_afr(const Dataset&),
// afr_by_class(const store::EventStore&), and friends — in favour of the
// single core::Source-taking overload per statistic. The old shape is easy
// to reintroduce by habit ("just add a Dataset overload"), and every
// reintroduction forks the validation/render path the redesign unified. This
// rule rejects any *declaration* in src/ of a known analysis entry point
// whose first parameter names a concrete backend (Dataset / EventStore /
// ShardStore) instead of Source.
//
// Call sites are unaffected: passing a Dataset lvalue to the Source overload
// is the sanctioned implicit conversion. Only the entry-point names listed
// below are reserved; a helper with another name may take a backend.
#include <array>

#include "lint/index.h"
#include "lint/scan.h"

namespace storsubsim::lint {

namespace {

/// The analysis entry points unified on core::Source. Declaring any of
/// these with a concrete-backend first parameter re-forks the API.
constexpr std::array<std::string_view, 9> kUnifiedEntryPoints = {
    "compute_afr",
    "afr_by_class",
    "time_between_failures",
    "failure_correlation",
    "failure_correlation_all_types",
    "disk_lifetime_observations",
    "disk_lifetime_report",
    "raid_vulnerability",
    "cross_type_correlation",
};

constexpr std::array<std::string_view, 3> kBackendTypes = {
    "Dataset",
    "EventStore",
    "ShardStore",
};

bool is_unified_entry_point(std::string_view name) {
  for (const std::string_view candidate : kUnifiedEntryPoints) {
    if (name == candidate) return true;
  }
  return false;
}

/// Whole-word, case-sensitive containment: "EventStore" matches, the
/// store-span overload's "EventView" (or a lowercase variable named
/// "dataset") does not.
bool contains_word(std::string_view text, std::string_view word) {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t after = pos + word.size();
    const bool right_ok = after >= text.size() || !is_ident_char(text[after]);
    if (left_ok && right_ok) return true;
    pos = after;
  }
  return false;
}

}  // namespace

void check_analysis_overload(const TreeIndex& index, std::vector<Finding>* findings) {
  for (const FileEntry& e : index.files) {
    if (!has_segment(e.display_path, "src")) continue;
    const std::string_view code = e.stripped.code;

    for_each_identifier(code, [&](const Token& tok) {
      if (!is_unified_entry_point(tok.text)) return;
      std::size_t at = 0;
      if (next_nonspace(code, tok.end, &at) != '(') return;
      const std::size_t close = match_paren(code, at);
      if (close == std::string_view::npos) return;
      // Only declarations/definitions re-fork the API; a call site passing a
      // backend lvalue is the sanctioned implicit Source conversion. A
      // declaration's first parameter spells a type name, so restrict the
      // check to the first top-level-comma-delimited segment.
      std::size_t first_end = close;
      int depth = 0;
      for (std::size_t i = at + 1; i < close; ++i) {
        const char c = code[i];
        if (c == '(' || c == '<' || c == '[' || c == '{') ++depth;
        if (c == ')' || c == '>' || c == ']' || c == '}') --depth;
        if (c == ',' && depth == 0) {
          first_end = i;
          break;
        }
      }
      const std::string_view first_param = code.substr(at + 1, first_end - (at + 1));
      if (contains_word(first_param, "Source")) return;
      for (const std::string_view backend : kBackendTypes) {
        if (!contains_word(first_param, backend)) continue;
        findings->push_back(Finding{
            e.display_path, line_of(e.stripped, tok.begin), Rule::kAnalysisOverload,
            "'" + std::string(tok.text) + "' declared over a concrete backend (" +
                std::string(backend) +
                "); the unified analysis entry points take core::Source — "
                "per-backend overloads were retired in the AnalysisRequest "
                "redesign (docs/API.md)",
            line_excerpt(*e.contents, line_of(e.stripped, tok.begin))});
        return;
      }
    });
  }
}

}  // namespace storsubsim::lint
