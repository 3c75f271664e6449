// analysis-overload: analyses take core::Source, never a backend.
//
// The AnalysisRequest redesign (docs/API.md) retired the per-backend
// analysis entry points — compute_afr(const Dataset&),
// afr_by_class(const store::EventStore&), and friends — in favour of one
// core::Source-taking function per statistic. The old shape is easy to
// reintroduce by habit ("just add a Dataset overload"), and every
// reintroduction forks the row-reading path Source unified. This rule
// rejects any function an exported src/core header declares with a
// parameter that names a concrete backend type (Dataset / EventStore /
// ShardStore), whatever the function is called.
//
// Allowed: Source's constructors (the one place a backend becomes a
// Source), a backend type's own constructors, private members, and the
// producers and writers — pipeline.h, store_bridge.h, sharded_build.h —
// which build Datasets and store files rather than read them. Call sites
// are unaffected: passing a Dataset lvalue to a Source parameter is the
// sanctioned implicit conversion.
#include <array>

#include "lint/index.h"
#include "lint/scan.h"

namespace storsubsim::lint {

namespace {

constexpr std::array<std::string_view, 3> kBackendTypes = {
    "Dataset",
    "EventStore",
    "ShardStore",
};

/// The src/core headers that produce or write backends.
constexpr std::array<std::string_view, 3> kProducerHeaders = {
    "src/core/pipeline.h",
    "src/core/store_bridge.h",
    "src/core/sharded_build.h",
};

/// Whole-word, case-sensitive containment: "EventStore" matches, the
/// store-span "EventView", "SimulationDataset" (or a lowercase variable
/// named "dataset") does not.
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

/// Source and the backends may be constructed from a backend.
bool is_constructor_exempt(std::string_view name) {
  if (name == "Source") return true;
  for (const std::string_view backend : kBackendTypes) {
    if (name == backend) return true;
  }
  return false;
}

/// The backend type the parameter list opening at `open` names, or "".
std::string_view backend_parameter(std::string_view code, std::size_t open) {
  const std::size_t close = match_paren(code, open);
  if (close == std::string_view::npos) return {};
  std::size_t begin = open + 1;
  int depth = 0;
  for (std::size_t i = begin; i <= close; ++i) {
    if (i < close) {
      const char c = code[i];
      if (c == '(' || c == '<' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == '>' || c == ']' || c == '}') --depth;
      if (c != ',' || depth != 0) continue;
    }
    const std::string_view param = code.substr(begin, i - begin);
    for (const std::string_view backend : kBackendTypes) {
      if (contains_word(param, backend)) return backend;
    }
    begin = i + 1;
  }
  return {};
}

}  // namespace

void check_analysis_overload(const TreeIndex& index, std::vector<Finding>* findings) {
  for (const FileEntry& e : index.files) {
    const std::string_view path = e.display_path;
    if (!is_header(path) || path.find("src/core/") == std::string_view::npos) continue;
    bool producer = false;
    for (const std::string_view header : kProducerHeaders) {
      producer = producer || ends_with_path(path, header);
    }
    if (producer) continue;
    const std::string_view code = e.stripped.code;

    for (const FuncDef& f : e.functions) {
      if (is_constructor_exempt(f.name) || in_hidden_section(code, f.offset)) continue;
      std::size_t open = 0;
      if (next_nonspace(code, f.offset + f.name.size(), &open) != '(') continue;
      const std::string_view backend = backend_parameter(code, open);
      if (backend.empty()) continue;
      findings->push_back(Finding{
          e.display_path, f.line, Rule::kAnalysisOverload,
          "'" + f.name + "' takes a concrete backend (" + std::string(backend) +
              "); functions a src/core header declares take core::Source — "
              "per-backend overloads were retired in the AnalysisRequest "
              "redesign (docs/API.md)",
          line_excerpt(*e.contents, f.line)});
    }
  }
}

}  // namespace storsubsim::lint
