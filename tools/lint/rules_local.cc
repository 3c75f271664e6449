// Phase-1 rules: per-file token scans that need no cross-TU knowledge
// (nondeterminism, unordered-iter, rng-discipline, header-hygiene,
// alloc-hotpath, timer-discipline, file-publish). The phase-2 families live in the
// rules_*.cc files next to this one and run over the index instead.
#include <algorithm>
#include <cctype>

#include "lint/linter.h"
#include "lint/scan.h"

namespace storsubsim::lint {
namespace {

struct NondetToken {
  std::string_view name;
  bool call_required;  // must be followed by '(' to count
  std::string_view message;
};

constexpr std::string_view kClockMsg =
    "wall-clock time source breaks replayable simulation; use simulated time "
    "(model/time.h) or pass timestamps in";
constexpr std::string_view kRandMsg =
    "hidden-global-state RNG; derive a storsubsim::stats::Rng keyed substream instead";

constexpr NondetToken kNondetTokens[] = {
    {"random_device", false,
     "std::random_device is nondeterministic; seed storsubsim::stats::Rng from the run's "
     "root seed"},
    {"system_clock", false, kClockMsg},
    {"steady_clock", false, kClockMsg},
    {"high_resolution_clock", false, kClockMsg},
    {"time", true, kClockMsg},
    {"clock", true, kClockMsg},
    {"gettimeofday", true, kClockMsg},
    {"clock_gettime", true, kClockMsg},
    {"localtime", true, kClockMsg},
    {"gmtime", true, kClockMsg},
    {"rand", true, kRandMsg},
    {"srand", true, kRandMsg},
    {"rand_r", true, kRandMsg},
    {"random", true, kRandMsg},
    {"srandom", true, kRandMsg},
    {"drand48", true, kRandMsg},
    {"lrand48", true, kRandMsg},
};

constexpr std::string_view kRngEngines[] = {
    "mt19937",      "mt19937_64",   "minstd_rand",   "minstd_rand0",
    "ranlux24",     "ranlux48",     "ranlux24_base", "ranlux48_base",
    "knuth_b",      "default_random_engine",         "seed_seq",
};

// The <random> distribution types by name (a bare `_distribution` suffix
// would also catch project functions like stats::bootstrap_distribution).
constexpr std::string_view kStdDistributions[] = {
    "uniform_int_distribution",   "uniform_real_distribution",
    "bernoulli_distribution",     "binomial_distribution",
    "negative_binomial_distribution", "geometric_distribution",
    "poisson_distribution",       "exponential_distribution",
    "gamma_distribution",         "weibull_distribution",
    "extreme_value_distribution", "normal_distribution",
    "lognormal_distribution",     "chi_squared_distribution",
    "cauchy_distribution",        "fisher_f_distribution",
    "student_t_distribution",     "discrete_distribution",
    "piecewise_constant_distribution", "piecewise_linear_distribution",
};

class FileLinter {
 public:
  FileLinter(std::string_view path, std::string_view contents, const LintOptions& options)
      : path_(path), src_(contents), options_(options), stripped_(strip(contents)) {}

  FileReport run() {
    collect_annotations(stripped_, path_, &annotations_, &raw_findings_);
    const bool in_src = has_segment(path_, "src");
    const bool in_stats = in_src && has_segment(path_, "stats");
    if (in_src) {
      check_nondeterminism();
      track_unordered_declarations();
      check_unordered_iteration();
    }
    if (!in_stats) check_rng_discipline();
    if (is_header(path_)) check_header_hygiene();
    const bool in_log_hotpath = (in_src && has_segment(path_, "log")) ||
                                (in_src && has_segment(path_, "store")) ||
                                (in_src && has_segment(path_, "serve")) ||
                                ends_with_path(path_, "src/core/pipeline.cc") ||
                                ends_with_path(path_, "src/core/sharded_build.cc");
    if (in_log_hotpath) check_alloc_hotpath();
    // The instrumented subsystems time regions exclusively through obs::Span
    // (one shared epoch, exported to metrics/traces); src/obs/ itself owns
    // the single steady_clock call site and is exempt.
    const bool timer_scoped = in_src && !has_segment(path_, "obs") &&
                              (has_segment(path_, "sim") || has_segment(path_, "log") ||
                               has_segment(path_, "store") || has_segment(path_, "serve") ||
                               ends_with_path(path_, "src/core/sharded_build.cc"));
    if (timer_scoped) check_timer_discipline();
    // src/ creates files only through util::publish_file (temp, fsync,
    // rename), and src/util/file.cc is that one write path.
    if (in_src && !ends_with_path(path_, "src/util/file.cc")) check_file_publish();
    return finish();
  }

 private:
  void add(std::size_t offset, Rule rule, std::string message) {
    const std::size_t line = line_of(stripped_, offset);
    raw_findings_.push_back(
        Finding{std::string(path_), line, rule, std::move(message), line_excerpt(src_, line)});
  }

  void check_nondeterminism() {
    const bool getenv_ok = std::any_of(
        options_.getenv_allowlist.begin(), options_.getenv_allowlist.end(),
        [&](const std::string& suffix) { return ends_with_path(path_, suffix); });
    for_each_identifier(stripped_.code, [&](const Token& tok) {
      if (is_member_access(stripped_.code, tok)) return;
      if (tok.text == "getenv") {
        if (next_nonspace(stripped_.code, tok.end) != '(') return;
        if (!getenv_ok) {
          add(tok.begin, Rule::kNondeterminism,
              "getenv reads ambient process state; only the allowlisted config entry "
              "points (src/util/parallel.cc) may consult the environment");
        }
        return;
      }
      for (const NondetToken& nd : kNondetTokens) {
        if (tok.text != nd.name) continue;
        if (nd.call_required && next_nonspace(stripped_.code, tok.end) != '(') break;
        add(tok.begin, Rule::kNondeterminism, std::string(tok.text) + ": " + std::string(nd.message));
        break;
      }
    });
  }

  /// True when the identifier token is reached through a `std::` qualifier
  /// (project-local overloads of the same name are fine).
  bool is_std_qualified(const Token& tok) const {
    const std::string_view code = stripped_.code;
    std::size_t at = 0;
    if (prev_nonspace(code, tok.begin, &at) != ':' || at == 0 || code[at - 1] != ':') {
      return false;
    }
    std::size_t b = at - 1;
    while (b > 0 && std::isspace(static_cast<unsigned char>(code[b - 1])) != 0) --b;
    std::size_t s = b;
    while (s > 0 && is_ident_char(code[s - 1])) --s;
    return code.substr(s, b - s) == "std";
  }

  // The emit/parse hot path (src/log/, src/store/, src/core/pipeline.cc)
  // promises steady-state zero allocation (docs/performance.md): every line
  // is built in a reusable log::LineWriter and parsed as views into a
  // retained buffer. This check refuses the per-line allocation patterns the
  // refactor removed, so they cannot creep back in.
  void check_alloc_hotpath() {
    const std::string_view code = stripped_.code;
    for_each_identifier(code, [&](const Token& tok) {
      if (is_member_access(code, tok)) return;
      if (tok.text == "ostringstream" || tok.text == "stringstream" ||
          tok.text == "istringstream") {
        add(tok.begin, Rule::kAllocHotpath,
            std::string(tok.text) +
                " allocates per use on the log hot path; append into a reusable "
                "log::LineWriter (emit) or parse views from a retained buffer (parse)");
        return;
      }
      if (tok.text == "to_string" && is_std_qualified(tok) &&
          next_nonspace(code, tok.end) == '(') {
        add(tok.begin, Rule::kAllocHotpath,
            "std::to_string materializes a temporary string per number on the log hot "
            "path; use log::LineWriter::u64/fixed3 (std::to_chars) instead");
      }
    });
    // String-literal operator+: a real '+' in stripped code (literal/comment
    // bytes are blanked 1:1, offsets preserved) whose nearest raw-source
    // neighbor on either side is a double quote.
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (code[i] != '+') continue;
      if (i + 1 < code.size() && (code[i + 1] == '+' || code[i + 1] == '=')) {
        ++i;  // skip ++ / +=
        continue;
      }
      if (i > 0 && code[i - 1] == '+') continue;
      const char before = prev_nonspace(src_, i);
      const char after = next_nonspace(src_, i + 1);
      if (before == '"' || after == '"') {
        add(i, Rule::kAllocHotpath,
            "string-literal operator+ builds a temporary per concatenation on the log "
            "hot path; append the pieces into a reusable log::LineWriter");
      }
    }
  }

  void check_timer_discipline() {
    const std::string_view code = stripped_.code;
    for_each_identifier(code, [&](const Token& tok) {
      if (is_member_access(code, tok)) return;
      if (tok.text == "StageTimer" || tok.text == "monotonic_seconds") {
        add(tok.begin, Rule::kTimerDiscipline,
            std::string(tok.text) +
                " is superseded in instrumented subsystems; time the region with an "
                "obs::Span (src/obs/span.h) so it shares the trace epoch and shows up "
                "in --trace/--metrics output");
        return;
      }
      if (tok.text == "chrono") {
        add(tok.begin, Rule::kTimerDiscipline,
            "direct std::chrono timing bypasses the observability layer; wrap the "
            "region in an obs::Span (src/obs/span.h) or read obs::now_seconds()");
      }
    });
  }

  void check_file_publish() {
    const std::string_view code = stripped_.code;
    for_each_identifier(code, [&](const Token& tok) {
      if (is_member_access(code, tok)) return;
      if (tok.text == "ofstream") {
        add(tok.begin, Rule::kFilePublish,
            "std::ofstream writes its target in place, so a crash or a concurrent reader "
            "sees a torn file; build the bytes and util::publish_file (src/util/file.h) them");
        return;
      }
      std::size_t open = 0;
      if (next_nonspace(code, tok.end, &open) != '(') return;
      if (tok.text == "creat" || (tok.text == "fopen" && fopen_writes(open))) {
        add(tok.begin, Rule::kFilePublish,
            std::string(tok.text) +
                " creates or writes a file in place; build the bytes and "
                "util::publish_file (src/util/file.h) them");
      }
    });
  }

  /// True when the fopen call whose '(' is at `open` has a mode containing
  /// 'w', 'a' or '+' — or a mode that is not a string literal, which the
  /// scan cannot see through.
  bool fopen_writes(std::size_t open) const {
    const std::string_view code = stripped_.code;
    const std::size_t close = match_paren(code, open);
    if (close == std::string_view::npos) return false;
    int depth = 0;
    std::size_t comma = std::string_view::npos;
    for (std::size_t i = open + 1; i < close && comma == std::string_view::npos; ++i) {
      if (code[i] == '(' || code[i] == '[' || code[i] == '{') ++depth;
      if (code[i] == ')' || code[i] == ']' || code[i] == '}') --depth;
      if (code[i] == ',' && depth == 0) comma = i;
    }
    if (comma == std::string_view::npos) return false;
    // Literal bytes are blanked in `code`; the mode is read from the source.
    const std::string_view mode = src_.substr(comma + 1, close - comma - 1);
    const std::size_t q1 = mode.find('"');
    const std::size_t q2 = q1 == std::string_view::npos ? q1 : mode.find('"', q1 + 1);
    if (q2 == std::string_view::npos) return true;
    return mode.substr(q1 + 1, q2 - q1 - 1).find_first_of("wa+") != std::string_view::npos;
  }

  void check_rng_discipline() {
    for_each_identifier(stripped_.code, [&](const Token& tok) {
      if (is_member_access(stripped_.code, tok)) return;
      const bool engine =
          std::find(std::begin(kRngEngines), std::end(kRngEngines), tok.text) !=
          std::end(kRngEngines);
      const bool distribution =
          std::find(std::begin(kStdDistributions), std::end(kStdDistributions),
                    tok.text) != std::end(kStdDistributions);
      if (!engine && !distribution) return;
      add(tok.begin, Rule::kRngDiscipline,
          std::string(tok.text) +
              " bypasses the keyed-substream discipline; all randomness must flow "
              "through storsubsim::stats::Rng (stats/rng.h)");
    });
  }

  // Records identifiers declared in this file with an unordered container
  // type (including through local `using X = std::unordered_map<...>`
  // aliases), so iteration over them can be flagged.
  void track_unordered_declarations() {
    unordered_types_ = {"unordered_map", "unordered_set", "unordered_multimap",
                        "unordered_multiset"};
    const std::string_view code = stripped_.code;
    // Pass 1: aliases. `using X = ...unordered_...;`
    for_each_identifier(code, [&](const Token& tok) {
      if (tok.text != "using") return;
      Token name;
      if (!next_identifier(code, tok.end, &name)) return;
      std::size_t at = 0;
      if (next_nonspace(code, name.end, &at) != '=') return;
      const std::size_t semi = code.find(';', at);
      if (semi == std::string_view::npos) return;
      const std::string_view rhs = code.substr(at, semi - at);
      for (const std::string& t : unordered_types_) {
        if (rhs.find(t) != std::string_view::npos) {
          unordered_types_.push_back(std::string(name.text));
          break;
        }
      }
    });
    // Pass 2: declarations. `<unordered type> [<...>] [&*] name [;,={(:)]`
    for_each_identifier(code, [&](const Token& tok) {
      if (std::find(unordered_types_.begin(), unordered_types_.end(), tok.text) ==
          unordered_types_.end()) {
        return;
      }
      std::size_t pos = tok.end;
      std::size_t at = 0;
      if (next_nonspace(code, pos, &at) == '<') {
        pos = skip_angles(code, at);
        if (pos == std::string_view::npos) return;
      }
      // Skip references, pointers, and cv qualifiers between type and name.
      Token name;
      for (;;) {
        const char c = next_nonspace(code, pos, &at);
        if (c == '&' || c == '*') {
          pos = at + 1;
          continue;
        }
        if (!is_ident_char(c)) return;
        if (!next_identifier(code, pos, &name)) return;
        if (name.text == "const" || name.text == "constexpr" || name.text == "static") {
          pos = name.end;
          continue;
        }
        break;
      }
      const char after = next_nonspace(code, name.end);
      if (after == ';' || after == ',' || after == '=' || after == '{' || after == '(' ||
          after == ')' || after == ':' || after == '[') {
        declared_unordered_.push_back(std::string(name.text));
      }
    });
  }

  bool tracked(std::string_view name) const {
    return std::find(declared_unordered_.begin(), declared_unordered_.end(), name) !=
           declared_unordered_.end();
  }

  void check_unordered_iteration() {
    const std::string_view code = stripped_.code;
    // Range-for over a tracked variable (or member chain ending in one).
    for_each_identifier(code, [&](const Token& tok) {
      if (tok.text != "for") return;
      std::size_t at = 0;
      if (next_nonspace(code, tok.end, &at) != '(') return;
      // Balanced paren scan; find the top-level ':' (not '::').
      int depth = 0;
      std::size_t colon = std::string_view::npos, close = std::string_view::npos;
      for (std::size_t i = at; i < code.size(); ++i) {
        const char c = code[i];
        if (c == '(' || c == '[' || c == '{') ++depth;
        if (c == ')' || c == ']' || c == '}') {
          --depth;
          if (depth == 0) {
            close = i;
            break;
          }
        }
        if (c == ':' && depth == 1 && colon == std::string_view::npos) {
          const bool dbl = (i + 1 < code.size() && code[i + 1] == ':') ||
                           (i > 0 && code[i - 1] == ':');
          if (!dbl) colon = i;
        }
      }
      if (colon == std::string_view::npos || close == std::string_view::npos) return;
      const std::string_view range = code.substr(colon + 1, close - colon - 1);
      std::string last_ident;
      if (!parse_var_chain(range, &last_ident)) return;
      if (!tracked(last_ident)) return;
      add(tok.begin, Rule::kUnorderedIter,
          "range-for over '" + last_ident +
              "' (std::unordered_*) leaks hash-table iteration order; iterate a sorted "
              "view / std::map, or annotate allow(unordered-iter) with a reason if the "
              "loop body is order-insensitive");
    });
    // Explicit iterator loops / algorithms: tracked.begin(), tracked->begin().
    for_each_identifier(code, [&](const Token& tok) {
      if (tok.text != "begin" && tok.text != "cbegin") return;
      if (next_nonspace(code, tok.end) != '(') return;
      std::size_t at = 0;
      const char p = prev_nonspace(code, tok.begin, &at);
      std::size_t base_end;
      if (p == '.') {
        base_end = at;
      } else if (p == '>' && at > 0 && code[at - 1] == '-') {
        base_end = at - 1;
      } else {
        return;
      }
      // Identifier immediately before the access operator.
      const Token base = ident_before(code, base_end);
      if (base.text.empty()) return;
      if (!tracked(base.text)) return;
      add(tok.begin, Rule::kUnorderedIter,
          "iterator traversal of '" + std::string(base.text) +
              "' (std::unordered_*) leaks hash-table iteration order; iterate a sorted "
              "view / std::map, or annotate allow(unordered-iter) with a reason if the "
              "traversal is order-insensitive");
    });
  }

  void check_header_hygiene() {
    const std::string_view code = stripped_.code;
    if (code.find("#pragma once") == std::string_view::npos) {
      const bool guarded = code.find("#ifndef") != std::string_view::npos &&
                           code.find("#define") != std::string_view::npos;
      if (!guarded) {
        raw_findings_.push_back(Finding{std::string(path_), 1, Rule::kHeaderHygiene,
                                        "header lacks #pragma once (or an include guard); "
                                        "double inclusion is an ODR time bomb",
                                        line_excerpt(src_, 1)});
      }
    }
    for_each_identifier(code, [&](const Token& tok) {
      if (tok.text != "using") return;
      Token next;
      if (!next_identifier(code, tok.end, &next) || next.text != "namespace") return;
      add(tok.begin, Rule::kHeaderHygiene,
          "using-namespace in a header leaks the namespace into every includer; "
          "qualify names instead");
    });
  }

  FileReport finish() {
    FileReport report;
    for (const Annotation& a : annotations_) {
      report.suppressions.push_back(
          Suppression{std::string(path_), a.target_line, a.rule, a.reason});
    }
    for (Finding& f : raw_findings_) {
      const bool suppressed =
          f.rule != Rule::kBadSuppression &&
          std::any_of(annotations_.begin(), annotations_.end(), [&](const Annotation& a) {
            return a.target_line == f.line && a.rule == f.rule;
          });
      if (!suppressed) report.findings.push_back(std::move(f));
    }
    std::sort(report.findings.begin(), report.findings.end(),
              [](const Finding& a, const Finding& b) {
                if (a.line != b.line) return a.line < b.line;
                return rule_name(a.rule) < rule_name(b.rule);
              });
    return report;
  }

  std::string_view path_;
  std::string_view src_;
  const LintOptions& options_;
  Stripped stripped_;
  std::vector<Annotation> annotations_;
  std::vector<Finding> raw_findings_;
  std::vector<std::string> unordered_types_;
  std::vector<std::string> declared_unordered_;
};

}  // namespace

FileReport lint_source(std::string_view path, std::string_view contents,
                       const LintOptions& options) {
  return FileLinter(path, contents, options).run();
}

}  // namespace storsubsim::lint
