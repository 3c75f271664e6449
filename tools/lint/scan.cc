#include "lint/scan.h"

#include <algorithm>
#include <cctype>

namespace storsubsim::lint {

bool is_ident_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '_';
}

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[v & 0xfu];
    v >>= 4u;
  }
  return out;
}

bool has_segment(std::string_view path, std::string_view segment) noexcept {
  std::size_t pos = 0;
  while (pos <= path.size()) {
    const std::size_t next = path.find('/', pos);
    const std::size_t len = (next == std::string_view::npos ? path.size() : next) - pos;
    if (path.substr(pos, len) == segment) return true;
    if (next == std::string_view::npos) break;
    pos = next + 1;
  }
  return false;
}

bool ends_with_path(std::string_view path, std::string_view suffix) noexcept {
  if (path.size() < suffix.size()) return false;
  if (path.substr(path.size() - suffix.size()) != suffix) return false;
  return path.size() == suffix.size() || path[path.size() - suffix.size() - 1] == '/';
}

bool is_header(std::string_view path) noexcept {
  return path.ends_with(".h") || path.ends_with(".hh") || path.ends_with(".hpp") ||
         path.ends_with(".hxx");
}

Stripped strip(std::string_view src) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  Stripped out;
  out.code.reserve(src.size());
  out.line_start.push_back(0);
  out.comment_text.emplace_back();

  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      out.code.push_back('\n');
      out.line_start.push_back(out.code.size());
      out.comment_text.emplace_back();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out.code.append("  ");
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out.code.append("  ");
          ++i;
        } else if (c == '"') {
          // Raw string literal? Look back for R (uR, u8R, LR also exist).
          if (!out.code.empty() && out.code.back() == 'R') {
            raw_delim.clear();
            std::size_t j = i + 1;
            while (j < src.size() && src[j] != '(' && src[j] != '\n') {
              raw_delim.push_back(src[j]);
              ++j;
            }
            state = State::kRawString;
          } else {
            state = State::kString;
          }
          out.code.push_back(' ');
        } else if (c == '\'') {
          // Digit separators (1'000'000) are not character literals.
          const bool digit_sep = !out.code.empty() &&
                                 std::isalnum(static_cast<unsigned char>(out.code.back())) != 0;
          if (!digit_sep) state = State::kChar;
          out.code.push_back(' ');
        } else {
          out.code.push_back(c);
        }
        break;
      case State::kLineComment:
        out.comment_text.back().push_back(c);
        out.code.push_back(' ');
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out.code.append("  ");
          ++i;
        } else {
          out.comment_text.back().push_back(c);
          out.code.push_back(' ');
        }
        break;
      case State::kString:
        if (c == '\\') {
          out.code.append("  ");
          ++i;
        } else {
          if (c == '"') state = State::kCode;
          out.code.push_back(' ');
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out.code.append("  ");
          ++i;
        } else {
          if (c == '\'') state = State::kCode;
          out.code.push_back(' ');
        }
        break;
      case State::kRawString: {
        // Close only on )delim"
        if (c == ')' && src.compare(i + 1, raw_delim.size(), raw_delim) == 0 &&
            i + 1 + raw_delim.size() < src.size() && src[i + 1 + raw_delim.size()] == '"') {
          for (std::size_t k = 0; k < raw_delim.size() + 2; ++k) out.code.push_back(' ');
          i += raw_delim.size() + 1;
          state = State::kCode;
        } else {
          out.code.push_back(' ');
        }
        break;
      }
    }
  }
  return out;
}

std::size_t line_of(const Stripped& s, std::size_t offset) noexcept {
  const auto it = std::upper_bound(s.line_start.begin(), s.line_start.end(), offset);
  return static_cast<std::size_t>(it - s.line_start.begin());  // 1-based
}

std::string line_excerpt(std::string_view src, std::size_t line) {
  std::size_t cur = 1, pos = 0;
  while (cur < line) {
    const std::size_t nl = src.find('\n', pos);
    if (nl == std::string_view::npos) return "";
    pos = nl + 1;
    ++cur;
  }
  const std::size_t end = src.find('\n', pos);
  return trim(src.substr(pos, end == std::string_view::npos ? std::string_view::npos
                                                            : end - pos));
}

bool line_has_code(const Stripped& s, std::size_t line) {
  const std::size_t begin = s.line_start[line - 1];
  const std::size_t end =
      line < s.line_start.size() ? s.line_start[line] : s.code.size();
  for (std::size_t i = begin; i < end; ++i) {
    if (std::isspace(static_cast<unsigned char>(s.code[i])) == 0) return true;
  }
  return false;
}

char prev_nonspace(std::string_view code, std::size_t pos, std::size_t* at) {
  while (pos > 0) {
    --pos;
    if (std::isspace(static_cast<unsigned char>(code[pos])) == 0) {
      if (at != nullptr) *at = pos;
      return code[pos];
    }
  }
  return '\0';
}

char next_nonspace(std::string_view code, std::size_t pos, std::size_t* at) {
  while (pos < code.size()) {
    if (std::isspace(static_cast<unsigned char>(code[pos])) == 0) {
      if (at != nullptr) *at = pos;
      return code[pos];
    }
    ++pos;
  }
  return '\0';
}

bool is_member_access(std::string_view code, const Token& tok) {
  std::size_t at = 0;
  const char p = prev_nonspace(code, tok.begin, &at);
  if (p == '.') return true;
  if (p == '>' && at > 0 && code[at - 1] == '-') return true;
  return false;
}

std::size_t skip_angles(std::string_view code, std::size_t pos) {
  int depth = 0;
  while (pos < code.size()) {
    const char c = code[pos];
    if (c == '<') ++depth;
    if (c == '>') {
      --depth;
      if (depth == 0) return pos + 1;
    }
    if (c == ';' || c == '{') return std::string_view::npos;  // gave up: not a template arg list
    ++pos;
  }
  return std::string_view::npos;
}

std::size_t match_paren(std::string_view code, std::size_t pos) {
  int depth = 0;
  for (; pos < code.size(); ++pos) {
    const char c = code[pos];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') {
      --depth;
      if (depth == 0) return c == ')' ? pos : std::string_view::npos;
    }
  }
  return std::string_view::npos;
}

std::size_t match_brace(std::string_view code, std::size_t pos) {
  int depth = 0;
  for (; pos < code.size(); ++pos) {
    const char c = code[pos];
    if (c == '{') ++depth;
    if (c == '}') {
      --depth;
      if (depth == 0) return pos;
    }
  }
  return std::string_view::npos;
}

Token ident_before(std::string_view code, std::size_t end) {
  std::size_t b = end;
  while (b > 0 && std::isspace(static_cast<unsigned char>(code[b - 1])) != 0) --b;
  std::size_t s = b;
  while (s > 0 && is_ident_char(code[s - 1])) --s;
  return Token{s, b, code.substr(s, b - s)};
}

bool next_identifier(std::string_view code, std::size_t pos, Token* out) {
  std::size_t at = 0;
  if (!is_ident_char(next_nonspace(code, pos, &at))) return false;
  std::size_t end = at;
  while (end < code.size() && is_ident_char(code[end])) ++end;
  *out = Token{at, end, code.substr(at, end - at)};
  return true;
}

bool parse_var_chain(std::string_view expr, std::string* last_ident) {
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < expr.size() && std::isspace(static_cast<unsigned char>(expr[i])) != 0) ++i;
  };
  skip_ws();
  while (i < expr.size() && (expr[i] == '*' || expr[i] == '&' || expr[i] == '(')) ++i;
  skip_ws();
  std::string last;
  for (;;) {
    skip_ws();
    if (i >= expr.size() || !is_ident_char(expr[i])) return false;
    const std::size_t s = i;
    while (i < expr.size() && is_ident_char(expr[i])) ++i;
    last.assign(expr.substr(s, i - s));
    skip_ws();
    while (i < expr.size() && expr[i] == ')') {
      ++i;
      skip_ws();
    }
    if (i >= expr.size()) break;
    if (expr[i] == '.') {
      ++i;
      continue;
    }
    if (expr[i] == '-' && i + 1 < expr.size() && expr[i + 1] == '>') {
      i += 2;
      continue;
    }
    return false;  // call, subscript, arithmetic, ... — give up silently
  }
  *last_ident = std::move(last);
  return true;
}

std::size_t chain_start(std::string_view code, const Token& tok) {
  std::size_t start = tok.begin;
  for (;;) {
    std::size_t at = 0;
    const char p = prev_nonspace(code, start, &at);
    if (p == ':' && at > 0 && code[at - 1] == ':') {
      const Token prev = ident_before(code, at - 1);
      if (prev.text.empty()) return start;
      start = prev.begin;
      continue;
    }
    if (p == '.') {
      const Token prev = ident_before(code, at);
      if (prev.text.empty()) return std::string_view::npos;  // `)`/`]` link
      start = prev.begin;
      continue;
    }
    if (p == '>' && at > 0 && code[at - 1] == '-') {
      const Token prev = ident_before(code, at - 1);
      if (prev.text.empty()) return std::string_view::npos;
      start = prev.begin;
      continue;
    }
    return start;
  }
}

void collect_annotations(const Stripped& s, std::string_view path,
                         std::vector<Annotation>* annotations,
                         std::vector<Finding>* findings) {
  static constexpr std::string_view kMarker = "storsim-lint:";
  for (std::size_t li = 0; li < s.comment_text.size(); ++li) {
    const std::string& text = s.comment_text[li];
    std::size_t pos = text.find(kMarker);
    if (pos == std::string::npos) continue;
    const std::size_t line = li + 1;
    auto bad = [&](std::string msg) {
      findings->push_back(Finding{std::string(path), line, Rule::kBadSuppression,
                                  std::move(msg), trim(text)});
    };
    std::string_view rest = std::string_view(text).substr(pos + kMarker.size());
    const std::size_t open = rest.find("allow(");
    if (open == std::string_view::npos) {
      bad("storsim-lint annotation without allow(<rule>)");
      continue;
    }
    const std::size_t close = rest.find(')', open);
    if (close == std::string_view::npos) {
      bad("unterminated allow( in storsim-lint annotation");
      continue;
    }
    const std::string rule_text = trim(rest.substr(open + 6, close - open - 6));
    const auto rule = rule_from_name(rule_text);
    if (!rule) {
      bad("unknown lint rule '" + rule_text + "' in allow()");
      continue;
    }
    const std::size_t reason_pos = rest.find("reason=", close);
    const std::string reason =
        reason_pos == std::string_view::npos ? "" : trim(rest.substr(reason_pos + 7));
    if (reason.empty()) {
      bad("allow(" + rule_text + ") is missing a reason=...; suppressions must be justified");
      continue;
    }
    // Trailing annotation applies to its own line; a whole-line comment
    // applies to the next line that has code.
    std::size_t target = line;
    if (!line_has_code(s, line)) {
      target = line + 1;
      while (target <= s.comment_text.size() && !line_has_code(s, target)) ++target;
    }
    annotations->push_back(Annotation{target, *rule, reason});
  }
}

bool is_access_specifier(std::string_view word) {
  return word == "public" || word == "private" || word == "protected";
}

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

}  // namespace storsubsim::lint
