#include "lint/index.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <set>

namespace storsubsim::lint {
namespace {

// Identifiers that look like `name(...)` but never declare a function.
constexpr std::string_view kNotAFunction[] = {
    "if",     "for",      "while",    "switch",        "return",   "sizeof",
    "alignof", "alignas", "typeid",   "catch",         "new",      "delete",
    "static_assert",      "decltype", "noexcept",      "throw",    "requires",
    "case",   "goto",     "using",    "operator",      "co_await", "co_return",
    "co_yield", "assert", "defined",  "static_cast",   "const_cast",
    "dynamic_cast",       "reinterpret_cast"};

// Keywords that, appearing immediately before a candidate declarator, mark it
// as an expression (`return open(p);`) rather than a declaration.
constexpr std::string_view kExprContext[] = {"return",    "throw", "case",
                                             "new",       "delete", "else",
                                             "do",        "goto",  "co_return",
                                             "co_yield",  "co_await"};

bool in_list(std::string_view t, const std::string_view* begin,
             const std::string_view* end) {
  return std::find(begin, end, t) != end;
}

/// Whole-word search over `window`, skipping preprocessor lines (so
/// `#include <span>` above a declaration never reads as a view return type).
bool window_has_word(std::string_view window, std::string_view word) {
  std::size_t pos = 0;
  while (pos <= window.size()) {
    const std::size_t nl = window.find('\n', pos);
    const std::string_view line = window.substr(
        pos, nl == std::string_view::npos ? window.size() - pos : nl - pos);
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string_view::npos || line[first] != '#') {
      std::size_t at = 0;
      while ((at = line.find(word, at)) != std::string_view::npos) {
        const bool lb = at == 0 || !is_ident_char(line[at - 1]);
        const bool rb = at + word.size() >= line.size() ||
                        !is_ident_char(line[at + word.size()]);
        if (lb && rb) return true;
        at += word.size();
      }
    }
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  return false;
}

constexpr std::string_view kErrorTypes[] = {"Error", "Result", "Expected"};
constexpr std::string_view kViewTypes[] = {"string_view", "span", "LogView",
                                           "ColumnView", "EventView"};
constexpr std::string_view kOwningTypes[] = {"string", "vector"};

TypeCategory categorize_return(std::string_view window) {
  for (const std::string_view w : kErrorTypes) {
    if (window_has_word(window, w)) return TypeCategory::kError;
  }
  for (const std::string_view w : kViewTypes) {
    if (window_has_word(window, w)) return TypeCategory::kView;
  }
  return TypeCategory::kOther;
}

/// Splits `text` at top-level commas (ignoring commas nested in <>()[]{}).
std::vector<std::string_view> split_top_level(std::string_view text) {
  std::vector<std::string_view> out;
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    const char c = i < text.size() ? text[i] : ',';
    if (c == '<' || c == '(' || c == '[' || c == '{') ++depth;
    if (c == '>' || c == ')' || c == ']' || c == '}') --depth;
    if (c == ',' && depth <= 0) {
      const std::string_view piece = text.substr(start, i - start);
      if (!trim(piece).empty()) out.push_back(piece);
      start = i + 1;
    }
  }
  return out;
}

std::vector<Param> parse_params(std::string_view inside) {
  std::vector<Param> out;
  for (std::string_view piece : split_top_level(inside)) {
    // Cut a default argument; the declarator is everything before '='.
    int depth = 0;
    for (std::size_t i = 0; i < piece.size(); ++i) {
      const char c = piece[i];
      if (c == '<' || c == '(' || c == '[' || c == '{') ++depth;
      if (c == '>' || c == ')' || c == ']' || c == '}') --depth;
      if (c == '=' && depth == 0) {
        piece = piece.substr(0, i);
        break;
      }
    }
    Param p;
    const Token name = ident_before(piece, piece.size());
    // An unnamed parameter leaves the type's last word here; treating it as a
    // name is harmless (no body can reference it).
    p.name = std::string(name.text);
    const std::string_view type_text = piece.substr(0, name.begin);
    const bool rvalue = type_text.find("&&") != std::string_view::npos;
    const bool by_ref = !rvalue && type_text.find('&') != std::string_view::npos;
    const bool by_ptr = type_text.find('*') != std::string_view::npos;
    bool owning = false;
    for (const std::string_view w : kOwningTypes) {
      if (window_has_word(type_text, w)) owning = true;
    }
    p.owning_by_value = owning && !by_ref && !by_ptr;
    out.push_back(std::move(p));
  }
  return out;
}

void scan_includes(const std::string& contents, FileEntry* entry) {
  std::size_t pos = 0, lineno = 1;
  while (pos <= contents.size()) {
    const std::size_t nl = contents.find('\n', pos);
    const std::string_view line = std::string_view(contents).substr(
        pos, nl == std::string::npos ? contents.size() - pos : nl - pos);
    std::size_t i = line.find_first_not_of(" \t");
    if (i != std::string_view::npos && line[i] == '#') {
      i = line.find_first_not_of(" \t", i + 1);
      if (i != std::string_view::npos && line.substr(i, 7) == "include") {
        const std::size_t open = line.find('"', i + 7);
        if (open != std::string_view::npos) {
          const std::size_t close = line.find('"', open + 1);
          if (close != std::string_view::npos) {
            entry->includes.push_back(IncludeRef{
                std::string(line.substr(open + 1, close - open - 1)), lineno});
          }
        }
      }
    }
    if (nl == std::string::npos) break;
    pos = nl + 1;
    ++lineno;
  }
}

void scan_functions(FileEntry* entry) {
  const std::string_view code = entry->stripped.code;
  for_each_identifier(code, [&](const Token& tok) {
    if (in_list(tok.text, std::begin(kNotAFunction), std::end(kNotAFunction))) return;
    if (is_member_access(code, tok)) return;
    std::size_t at = 0;
    if (next_nonspace(code, tok.end, &at) != '(') return;
    const std::size_t close = match_paren(code, at);
    if (close == std::string_view::npos) return;

    // Declarator start: back over `Class::` qualifiers.
    const std::size_t root = chain_start(code, tok);
    if (root == std::string_view::npos) return;
    std::size_t before_at = 0;
    const char before = root == 0 ? '\0' : prev_nonspace(code, root, &before_at);
    const bool typeish = is_ident_char(before) || before == '>' || before == '&' ||
                         before == '*' || before == ']';
    if (typeish) {
      const Token prev = ident_before(code, root);
      if (in_list(prev.text, std::begin(kExprContext), std::end(kExprContext))) return;
    }

    // Walk the post-parameter tail to the terminator: `{` body, `;` / `= ...;`
    // declaration, `:` ctor-init list, or `->` trailing return.
    std::size_t pos = close + 1;
    bool has_body = false, is_decl = false;
    std::size_t body_begin = 0;
    std::vector<std::pair<std::string, std::string>> inits;
    for (;;) {
      std::size_t cat = 0;
      const char c = next_nonspace(code, pos, &cat);
      if (c == '\0') return;
      if (c == '{') {
        has_body = true;
        body_begin = cat;
        break;
      }
      if (c == ';') {
        is_decl = true;
        break;
      }
      if (c == '=') {
        // `= default;`, `= delete;`, `= 0;` are declarations; anything else
        // (assignment to a call result) is an expression.
        std::size_t vat = 0;
        const char v = next_nonspace(code, cat + 1, &vat);
        if (v == '0') {
          is_decl = true;
          break;
        }
        Token t2;
        if (!next_identifier(code, cat + 1, &t2)) return;
        if (t2.text == "default" || t2.text == "delete") {
          is_decl = true;
          break;
        }
        return;
      }
      if (c == ':' && (cat + 1 >= code.size() || code[cat + 1] != ':')) {
        // Constructor member-init list: `member(args)` / `member{args}`, comma
        // separated, ending at the body brace.
        std::size_t p = cat + 1;
        for (;;) {
          Token m;
          if (!next_identifier(code, p, &m)) return;
          std::size_t a2 = 0;
          char nc = next_nonspace(code, m.end, &a2);
          if (nc == '<') {
            const std::size_t e2 = skip_angles(code, a2);
            if (e2 == std::string_view::npos) return;
            nc = next_nonspace(code, e2, &a2);
          }
          if (nc != '(' && nc != '{') return;
          const std::size_t cl =
              nc == '(' ? match_paren(code, a2) : match_brace(code, a2);
          if (cl == std::string_view::npos) return;
          inits.emplace_back(std::string(m.text),
                             trim(code.substr(a2 + 1, cl - a2 - 1)));
          const char after = next_nonspace(code, cl + 1, &a2);
          if (after == ',') {
            p = a2 + 1;
            continue;
          }
          if (after == '{') {
            has_body = true;
            body_begin = a2;
          }
          break;
        }
        if (!has_body) return;
        break;
      }
      if (c == '-' && cat + 1 < code.size() && code[cat + 1] == '>') {
        int depth = 0;
        for (std::size_t i = cat + 2; i < code.size(); ++i) {
          const char ch = code[i];
          if (ch == '(' || ch == '[' || ch == '<') ++depth;
          if (ch == ')' || ch == ']' || ch == '>') --depth;
          if (depth == 0 && ch == '{') {
            has_body = true;
            body_begin = i;
            break;
          }
          if (depth <= 0 && ch == ';') {
            is_decl = true;
            break;
          }
        }
        if (!has_body && !is_decl) return;
        break;
      }
      if (is_ident_char(c)) {
        Token t2;
        if (!next_identifier(code, cat, &t2)) return;
        if (t2.text == "const" || t2.text == "noexcept" || t2.text == "override" ||
            t2.text == "final" || t2.text == "mutable" || t2.text == "try") {
          pos = t2.end;
          if (t2.text == "noexcept") {
            std::size_t a3 = 0;
            if (next_nonspace(code, t2.end, &a3) == '(') {
              const std::size_t cl = match_paren(code, a3);
              if (cl == std::string_view::npos) return;
              pos = cl + 1;
            }
          }
          continue;
        }
        return;
      }
      return;
    }
    std::size_t body_end = 0;
    if (has_body) {
      body_end = match_brace(code, body_begin);
      if (body_end == std::string_view::npos) return;
    }
    if (!typeish) {
      // No return type before the declarator: a constructor (or a macro with
      // a body). A bare `name(args);` in that position is a call, not a
      // declaration.
      if (!has_body && inits.empty()) return;
      if (!(before == '\0' || before == ';' || before == '{' || before == '}' ||
            before == ':' || before == '~')) {
        return;
      }
    }
    (void)is_decl;

    FuncDef fd;
    fd.name = std::string(tok.text);
    fd.line = line_of(entry->stripped, tok.begin);
    fd.offset = tok.begin;
    fd.has_body = has_body;
    fd.body_begin = body_begin;
    fd.body_end = body_end;
    fd.ctor_inits = std::move(inits);
    fd.params = parse_params(code.substr(at + 1, close - at - 1));
    std::size_t b = root;
    while (b > 0 && code[b - 1] != ';' && code[b - 1] != '{' && code[b - 1] != '}') --b;
    const std::string_view window = code.substr(b, root - b);
    fd.ret = typeish ? categorize_return(window) : TypeCategory::kOther;
    fd.nodiscard = window_has_word(window, "nodiscard");
    entry->functions.push_back(std::move(fd));
  });

  // Drop bodiless "declarations" that sit inside another function's body:
  // almost always a most-vexing-parse read of a local variable definition
  // (`std::vector<Error> errors(shards);`), not a nested function declaration.
  auto& fns = entry->functions;
  fns.erase(std::remove_if(fns.begin(), fns.end(),
                           [&](const FuncDef& f) {
                             if (f.has_body) return false;
                             const std::size_t off =
                                 entry->stripped.line_start[f.line - 1];
                             for (const FuncDef& g : fns) {
                               if (&g != &f && g.has_body && off > g.body_begin &&
                                   off < g.body_end) {
                                 return true;
                               }
                             }
                             return false;
                           }),
            fns.end());
}

constexpr std::string_view kMutexTypes[] = {
    "mutex",       "shared_mutex",       "recursive_mutex",
    "timed_mutex", "shared_timed_mutex", "recursive_timed_mutex"};

bool inside_any_body(const FileEntry& entry, std::size_t offset) {
  for (const FuncDef& f : entry.functions) {
    if (f.has_body && offset > f.body_begin && offset < f.body_end) return true;
  }
  return false;
}

/// Declarations of the form `<type> [<...>] name [;{=]` at class/namespace
/// scope (function-local declarations are excluded via the body ranges).
void scan_typed_members(FileEntry* entry, const std::string_view* types_begin,
                        const std::string_view* types_end, bool allow_init,
                        std::vector<std::string>* out) {
  const std::string_view code = entry->stripped.code;
  for_each_identifier(code, [&](const Token& tok) {
    if (!in_list(tok.text, types_begin, types_end)) return;
    if (is_member_access(code, tok)) return;
    if (inside_any_body(*entry, tok.begin)) return;
    std::size_t pos = tok.end;
    std::size_t at = 0;
    if (next_nonspace(code, pos, &at) == '<') {
      pos = skip_angles(code, at);
      if (pos == std::string_view::npos) return;
    }
    Token name;
    if (!next_identifier(code, pos, &name)) return;
    const char after = next_nonspace(code, name.end);
    if (after == ';' || after == '{' || (allow_init && after == '=')) {
      out->push_back(std::string(name.text));
    }
  });
}

}  // namespace

FileEntry index_file(std::string display_path, const std::string& contents) {
  FileEntry entry;
  entry.display_path = std::move(display_path);
  entry.contents = &contents;
  entry.stripped = strip(contents);
  std::vector<Finding> scratch;  // bad-suppression findings are phase 1's job
  collect_annotations(entry.stripped, entry.display_path, &entry.annotations, &scratch);
  scan_includes(contents, &entry);
  scan_functions(&entry);
  scan_typed_members(&entry, std::begin(kMutexTypes), std::end(kMutexTypes),
                     /*allow_init=*/true, &entry.mutex_names);
  scan_typed_members(&entry, std::begin(kViewTypes), std::end(kViewTypes),
                     /*allow_init=*/false, &entry.view_members);
  return entry;
}

TreeIndex build_index(std::vector<FileEntry> files) {
  TreeIndex index;
  index.files = std::move(files);
  for (const FileEntry& e : index.files) {
    if (!has_segment(e.display_path, "src")) continue;
    for (const FuncDef& f : e.functions) {
      if (f.ret != TypeCategory::kError) continue;
      auto [it, inserted] = index.error_functions.try_emplace(f.name, f.nodiscard);
      if (!inserted) it->second = it->second || f.nodiscard;
    }
    index.mutex_names.insert(index.mutex_names.end(), e.mutex_names.begin(),
                             e.mutex_names.end());
    index.view_members.insert(index.view_members.end(), e.view_members.begin(),
                              e.view_members.end());
  }
  auto dedupe = [](std::vector<std::string>* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  dedupe(&index.mutex_names);
  dedupe(&index.view_members);
  return index;
}

const std::map<std::string, std::vector<std::string>>& layer_closure() {
  static const std::map<std::string, std::vector<std::string>> kClosure = [] {
    // Declared direct edges of the src/ layering DAG. Kept in sync with the
    // table in docs/static-analysis.md.
    const std::map<std::string, std::vector<std::string>> direct = {
        {"obs", {}},
        {"util", {"obs"}},
        {"stats", {"util"}},
        {"model", {"stats"}},
        {"log", {"model", "obs"}},
        {"sim", {"log", "stats", "util"}},
        {"store", {"log", "util"}},
        {"core", {"sim", "store", "stats"}},
        {"replicate", {"core"}},
        {"serve", {"core", "replicate"}},
    };
    std::map<std::string, std::vector<std::string>> out;
    for (const auto& [layer, deps] : direct) {
      std::set<std::string> reach;
      std::function<void(const std::string&)> visit = [&](const std::string& l) {
        const auto it = direct.find(l);
        if (it == direct.end()) return;
        for (const std::string& d : it->second) {
          if (reach.insert(d).second) visit(d);
        }
      };
      (void)deps;
      visit(layer);
      out.emplace(layer, std::vector<std::string>(reach.begin(), reach.end()));
    }
    return out;
  }();
  return kClosure;
}

}  // namespace storsubsim::lint
