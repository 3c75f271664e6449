// Phase-1 scanning substrate shared by every rule: comment/string stripping,
// token iteration, path classification, and the inline allow() annotation
// parser. Internal to the lint library — the public surface is linter.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lint/linter.h"

namespace storsubsim::lint {

bool is_ident_char(char c) noexcept;
std::string trim(std::string_view s);
std::uint64_t fnv1a(std::string_view s) noexcept;
std::string hex64(std::uint64_t v);

/// True when `segment` appears as a whole path component of `path`.
bool has_segment(std::string_view path, std::string_view segment) noexcept;
bool ends_with_path(std::string_view path, std::string_view suffix) noexcept;
bool is_header(std::string_view path) noexcept;

// --- comment / string stripping ---------------------------------------------

/// The stripped view of a source file: literals and comments blanked byte-
/// for-byte (offsets into `code` equal offsets into the original source),
/// the comment text collected per line, and the offset of each line start.
struct Stripped {
  std::string code;
  std::vector<std::string> comment_text;
  std::vector<std::size_t> line_start;
};

Stripped strip(std::string_view src);
std::size_t line_of(const Stripped& s, std::size_t offset) noexcept;
std::string line_excerpt(std::string_view src, std::size_t line);
bool line_has_code(const Stripped& s, std::size_t line);

// --- token scanning ---------------------------------------------------------

struct Token {
  std::size_t begin = 0;  // offset in stripped code
  std::size_t end = 0;
  std::string_view text;
};

/// Invokes `fn` for every identifier token in the stripped code.
template <typename Fn>
void for_each_identifier(std::string_view code, Fn&& fn) {
  std::size_t i = 0;
  while (i < code.size()) {
    if (is_ident_char(code[i]) && !(code[i] >= '0' && code[i] <= '9')) {
      const std::size_t begin = i;
      while (i < code.size() && is_ident_char(code[i])) ++i;
      fn(Token{begin, i, code.substr(begin, i - begin)});
    } else {
      ++i;
    }
  }
}

char prev_nonspace(std::string_view code, std::size_t pos, std::size_t* at = nullptr);
char next_nonspace(std::string_view code, std::size_t pos, std::size_t* at = nullptr);

/// True when the identifier token at `tok` is reached via `.` or `->`
/// (a member access, e.g. `event.time`), as opposed to a free/qualified name.
bool is_member_access(std::string_view code, const Token& tok);

/// Skips a balanced <...> starting at `pos` (which must point at '<').
/// Returns one past the closing '>', or npos if unbalanced.
std::size_t skip_angles(std::string_view code, std::size_t pos);

/// `pos` points at '('; returns the index of the matching ')' (tracking
/// nested (), [], {}), or npos when unbalanced.
std::size_t match_paren(std::string_view code, std::size_t pos);

/// `pos` points at '{'; returns the index of the matching '}', or npos.
std::size_t match_brace(std::string_view code, std::size_t pos);

/// Reads the identifier token ending just before `end` (skipping trailing
/// whitespace). Returns an empty text when none.
Token ident_before(std::string_view code, std::size_t end);

/// Reads the identifier token starting at/after `pos` (skipping whitespace).
bool next_identifier(std::string_view code, std::size_t pos, Token* out);

/// Accepts `name`, `*name`, `a.b->c` chains; rejects anything with calls or
/// operators (we cannot see through function results). Returns the final
/// identifier of the chain.
bool parse_var_chain(std::string_view expr, std::string* last_ident);

/// Walks a postfix chain (`a.b->c::d`) backwards from the identifier token
/// at `tok`, returning the offset of the chain's first identifier
/// (`a.b->c(` called on token `c` yields the offset of `a`). Stops at any
/// other character; `)`/`]` links (call or subscript results in the chain)
/// make the chain unresolvable and return npos.
std::size_t chain_start(std::string_view code, const Token& tok);

/// `public`, `private` or `protected`.
bool is_access_specifier(std::string_view word);

/// True when the declaration at `offset` sits in a private or protected
/// section of a class body, or of a class that itself does.
bool in_hidden_section(std::string_view code, std::size_t offset);

// --- inline suppression annotations -----------------------------------------

struct Annotation {
  std::size_t target_line = 0;  // 1-based line the allow() applies to
  Rule rule = Rule::kNondeterminism;
  std::string reason;
};

/// Parses the inline suppression annotations (the storsim-lint marker, then
/// allow of one rule name and a reason= text) out of the comment text.
/// Malformed annotations become kBadSuppression findings.
void collect_annotations(const Stripped& s, std::string_view path,
                         std::vector<Annotation>* annotations,
                         std::vector<Finding>* findings);

}  // namespace storsubsim::lint
