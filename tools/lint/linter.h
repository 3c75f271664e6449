// storsim_lint — static enforcement of the project's determinism, memory-
// safety, and concurrency contracts.
//
// The analysis pipeline promises bit-identical output at any thread count
// (see docs/performance.md) and that corrupted storage-layer input can never
// reach undefined behavior (docs/STORE.md). Runtime ThreadInvariance tests
// and the corruption-fuzz suite catch violations probabilistically; this
// linter proves the cheap half statically by refusing to let known violation
// patterns into the tree at all.
//
// The engine runs in two phases:
//
//   phase 1 (per file, parallel)  — token-scan rules over one translation
//     unit at a time: nondeterminism, unordered-iter, rng-discipline,
//     header-hygiene, alloc-hotpath, timer-discipline, file-publish. While
//     scanning, each file is also indexed: its quoted includes, declared
//     functions (return types, [[nodiscard]]-ness, bodies, parameters), mutex
//     inventory, and view-typed members.
//   phase 2 (over the cross-TU index) — semantic rules that need more than
//     one file: view-lifetime (returning/storing a view of a dying buffer),
//     error-discipline (store::Error-returning APIs must be [[nodiscard]]
//     and their results must not be silently discarded), layering (the
//     declared dependency DAG over src/, with include-cycle detection), and
//     lock-discipline (mutexes are acquired via RAII guards only; no bare
//     .lock()/.unlock(), no double-lock in one scope), analysis-overload,
//     and unused-export (a function a src/ header declares must have a
//     caller in src/, tools/, bench/ or examples/ outside its own files).
//
// Intentional exceptions are either annotated inline,
//
//   // storsim-lint: allow(unordered-iter) reason=order-insensitive counters
//
// (the reason is mandatory; the tool records every suppression it honours),
// or versioned in a baseline file via --write-baseline / --baseline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace storsubsim::lint {

enum class Rule {
  kNondeterminism,
  kUnorderedIter,
  kRngDiscipline,
  kHeaderHygiene,
  kAllocHotpath,
  kTimerDiscipline,
  kFilePublish,
  kViewLifetime,
  kErrorDiscipline,
  kLayering,
  kLockDiscipline,
  kAnalysisOverload,
  kUnusedExport,
  kBadSuppression,
};

inline constexpr Rule kAllRules[] = {
    Rule::kNondeterminism, Rule::kUnorderedIter,    Rule::kRngDiscipline,
    Rule::kHeaderHygiene,  Rule::kAllocHotpath,     Rule::kTimerDiscipline,
    Rule::kFilePublish,    Rule::kViewLifetime,     Rule::kErrorDiscipline,
    Rule::kLayering,       Rule::kLockDiscipline,   Rule::kAnalysisOverload,
    Rule::kUnusedExport,   Rule::kBadSuppression};

std::string_view rule_name(Rule rule) noexcept;
std::optional<Rule> rule_from_name(std::string_view name) noexcept;

struct Finding {
  std::string path;       // normalized with '/' separators
  std::size_t line = 0;   // 1-based
  Rule rule = Rule::kNondeterminism;
  std::string message;
  std::string excerpt;    // trimmed source line the finding points at
};

/// An inline allow() annotation the linter honoured.
struct Suppression {
  std::string path;
  std::size_t line = 0;   // line the suppression applies to
  Rule rule = Rule::kNondeterminism;
  std::string reason;
};

struct LintOptions {
  /// Normalized path suffixes permitted to call getenv (configuration entry
  /// points that run before any simulation state exists).
  std::vector<std::string> getenv_allowlist = {"src/util/parallel.cc"};
  /// Directory names never descended into during recursive scans. Fixture
  /// files are deliberately bad; they are linted only when named explicitly.
  std::vector<std::string> skip_dirs = {"lint_fixtures", ".git", "build",
                                        "build-tsan", "build-asan-ubsan"};
};

struct FileReport {
  std::vector<Finding> findings;
  std::vector<Suppression> suppressions;
};

/// Lints one translation unit / header with the phase-1 per-file rules.
/// `path` should already be normalized (forward slashes, relative to the
/// repo root when possible): rule scoping (src/ vs bench/ vs tests/) and the
/// getenv allowlist key off of it. Phase-2 rules need the cross-TU index and
/// run through lint_tree instead.
FileReport lint_source(std::string_view path, std::string_view contents,
                       const LintOptions& options = {});

/// Normalizes a filesystem path for reporting: forward slashes, "./" stripped,
/// and made relative to `root` when it lies underneath it.
std::string normalize_path(std::string_view path, std::string_view root);

/// Expands files/directories into the list of lintable sources (recursing
/// into directories, honouring options.skip_dirs, matching C++ extensions).
/// Explicitly named files are always included. Returns normalized paths
/// paired with the on-disk path to read.
struct SourceFile {
  std::string display_path;  // normalized, used in reports and baselines
  std::string fs_path;       // path to open
};
std::vector<SourceFile> collect_sources(const std::vector<std::string>& paths,
                                        std::string_view root,
                                        const LintOptions& options,
                                        std::vector<std::string>* errors);

/// Restricts `sources` to entries whose display path appears in `changed`
/// (paths as git prints them: repo-relative, '/'-separated). Backs the CLI's
/// --changed-only mode for fast pre-commit runs. Note that phase-2 rules see
/// only the scanned subset: cross-TU facts living in unchanged files (for
/// example a [[nodiscard]] on a header the diff does not touch) are invisible
/// in this mode — the full scan remains the gate of record.
std::vector<SourceFile> filter_changed(std::vector<SourceFile> sources,
                                       const std::vector<std::string>& changed);

// --- the two-phase engine ---------------------------------------------------

/// An in-memory source, for driving the engine without a filesystem.
struct MemoryFile {
  std::string display_path;
  std::string contents;
};

struct TreeReport {
  std::vector<Finding> findings;        // sorted by (path, line, rule, message)
  std::vector<Suppression> suppressions;
  std::size_t file_count = 0;
};

/// The full engine: reads every source (in parallel over the shared thread
/// pool), runs the phase-1 per-file rules, builds the cross-TU index, runs
/// the phase-2 semantic rules, applies inline suppressions, and returns a
/// deterministically ordered report (sorted by path, then line, then rule —
/// identical at any thread count). I/O failures are reported via *errors.
TreeReport lint_tree(const std::vector<SourceFile>& sources,
                     const LintOptions& options,
                     std::vector<std::string>* errors);

/// Same engine over in-memory sources (tests, editor integrations).
TreeReport lint_tree_memory(const std::vector<MemoryFile>& files,
                            const LintOptions& options = {});

/// Renders a TreeReport as a machine-readable JSON document (one object:
/// schema version, file/finding/suppression counts, findings[], and
/// suppressions[]). Strict RFC 8259 — round-trips through obs::parse_json.
std::string render_json_report(const TreeReport& report);

// --- baseline support -------------------------------------------------------
// A baseline is a sorted text file, one line per accepted finding:
//   rule <TAB> path <TAB> line-hash <TAB> excerpt
// The hash is FNV-1a over the trimmed source line, so findings survive line-
// number drift but not content changes. Multiplicity is preserved: two
// identical lines in a file need two baseline entries.

std::string baseline_key(const Finding& finding);
std::string serialize_baseline(std::vector<Finding> findings);
/// Parses baseline text into key -> multiplicity. Lines starting with '#'
/// and blank lines are ignored. Unparseable lines are reported via *errors.
std::map<std::string, int> parse_baseline(std::string_view text,
                                          std::vector<std::string>* errors);
/// Drops findings covered by the baseline (consuming multiplicity) and
/// returns the remaining, genuinely new findings.
std::vector<Finding> apply_baseline(std::vector<Finding> findings,
                                    std::map<std::string, int> baseline);

/// "path:line: [rule] message" + indented excerpt, one finding per block.
std::string format_finding(const Finding& finding);

}  // namespace storsubsim::lint
