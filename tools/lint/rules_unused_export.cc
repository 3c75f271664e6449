// unused-export: every function a src/ header declares needs a caller.
//
// A header declaration is API surface that docs, tests and readers keep
// paying for. The rule flags each function declared in a src/**/*.h whose
// name never appears in the stripped code of a scanned file under src/,
// tools/, bench/ or examples/ other than that header and the .cc with the
// same stem. Test files never count as callers: a function only its own
// unit tests call is dead. A name that does appear in its own header or .cc
// (beyond its declarations) is used internally only, and the fix is to make
// it file-local instead of deleting it.
//
// Matching is by name, like every cross-TU rule here: a declaration counts
// as used when any other token spells its name, so overloads and same-named
// members share their callers. The check can miss dead code, but it never
// says "delete" to a function that src/, tools/, bench/ or examples/ spells.
// Deliberate API (docs/API.md entries, test oracles for a function still in
// use) takes an allow() with the reason.
#include <map>
#include <set>

#include "lint/index.h"
#include "lint/scan.h"

namespace storsubsim::lint {
namespace {

/// tests/ (and anything else) neither exports nor calls.
enum class Area : std::uint8_t { kOther, kSrc, kCaller };

/// The area a display path (relative to the repo root) belongs to: its
/// first component. "tests/lint_fixtures/x/src/a.h" is a test file.
Area area_of(std::string_view path) {
  const std::string_view top = path.substr(0, path.find('/'));
  if (top == path) return Area::kOther;  // a file at the root
  if (top == "src") return Area::kSrc;
  if (top == "tools" || top == "bench" || top == "examples") return Area::kCaller;
  return Area::kOther;
}

/// "src/core/afr.h" -> "src/core/afr".
std::string_view stem_of(std::string_view path) {
  const std::size_t dot = path.rfind('.');
  const std::size_t slash = path.rfind('/');
  if (dot == std::string_view::npos || (slash != std::string_view::npos && dot < slash)) {
    return path;
  }
  return path.substr(0, dot);
}

bool is_access_specifier(std::string_view word) {
  return word == "public" || word == "private" || word == "protected";
}

/// True when the declaration at `offset` sits in a private or protected
/// section of a class body, or of a class that itself does.
bool in_hidden_section(std::string_view code, std::size_t offset) {
  std::size_t open = offset;
  for (int depth = 0; open > 0;) {
    const char c = code[--open];
    if (c == '}') ++depth;
    if (c == '{' && depth-- == 0) break;
  }
  if (open == 0 || code[open] != '{') return false;  // namespace scope
  std::size_t head = open;
  while (head > 0 && code[head - 1] != ';' && code[head - 1] != '{' &&
         code[head - 1] != '}') {
    --head;
  }
  // The class-key is the last `class`/`struct` before the brace
  // (`template <class T> struct X {` is a struct).
  std::string_view key;
  std::size_t key_at = 0;
  for_each_identifier(code.substr(head, open - head), [&](const Token& tok) {
    if (tok.text == "class" || tok.text == "struct") {
      key = tok.text;
      key_at = head + tok.begin;
    }
  });
  if (key.empty()) return false;  // namespace or function body
  bool hidden = key == "class";
  int depth = 0;
  for (std::size_t i = open + 1; i < offset; ++i) {
    if (code[i] == '{') ++depth;
    if (code[i] == '}') --depth;
    if (depth != 0 || code[i] != ':' || code[i + 1] == ':' || code[i - 1] == ':') continue;
    const std::string_view word = ident_before(code, i).text;
    if (is_access_specifier(word)) hidden = word != "public";
  }
  return hidden || in_hidden_section(code, key_at);
}

/// True when the declarator at `offset` is not part of the header's exported
/// surface: a hidden class member, or a constructor's member-init item
/// (`: ref_(&x) {}`), which the index reads as a declaration.
bool unexported(std::string_view code, std::size_t offset) {
  std::size_t colon = 0;
  if (prev_nonspace(code, offset, &colon) == ':' && colon > 0 && code[colon - 1] != ':' &&
      !is_access_specifier(ident_before(code, colon).text)) {
    return true;
  }
  return in_hidden_section(code, offset);
}

}  // namespace

void check_unused_export(const TreeIndex& index, std::vector<Finding>* findings) {
  // Every exported function a src/ header declares, once per name per header.
  struct Export {
    const FileEntry* header;
    const FuncDef* decl;
  };
  std::vector<Export> exports;
  std::set<std::string, std::less<>> names;
  for (const FileEntry& e : index.files) {
    if (area_of(e.display_path) != Area::kSrc || !is_header(e.display_path)) continue;
    std::set<std::string_view> seen;
    for (const FuncDef& f : e.functions) {
      if (unexported(e.stripped.code, f.offset) || !seen.insert(f.name).second) continue;
      exports.push_back(Export{&e, &f});
      names.insert(f.name);
    }
  }

  // name -> the src/ and caller files whose code spells it somewhere other
  // than at one of that file's own function declarations.
  std::map<std::string_view, std::vector<const FileEntry*>> users;
  for (const FileEntry& e : index.files) {
    const Area area = area_of(e.display_path);
    if (area != Area::kSrc && area != Area::kCaller) continue;
    std::set<std::size_t> decl_offsets;
    for (const FuncDef& f : e.functions) decl_offsets.insert(f.offset);
    for_each_identifier(e.stripped.code, [&](const Token& tok) {
      const auto it = names.find(tok.text);
      if (it == names.end() || decl_offsets.contains(tok.begin)) return;
      std::vector<const FileEntry*>& files = users[*it];
      if (files.empty() || files.back() != &e) files.push_back(&e);
    });
  }

  for (const auto& [header, decl] : exports) {
    const std::string_view stem = stem_of(header->display_path);
    bool external = false, internal = false;
    for (const FileEntry* user : users[decl->name]) {
      const std::string_view path = user->display_path;
      const bool own = user == header || (stem_of(path) == stem && !is_header(path));
      (own ? internal : external) = true;
    }
    if (external) continue;
    findings->push_back(Finding{
        header->display_path, decl->line, Rule::kUnusedExport,
        "'" + decl->name + "' is declared in a src/ header but " +
            (internal ? "used only in its own header/.cc; make it file-local"
                      : "nothing outside tests calls it; delete it") +
            " (or allow() it as deliberate API, naming the caller)",
        line_excerpt(*header->contents, decl->line)});
  }
}

}  // namespace storsubsim::lint
