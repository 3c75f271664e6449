// storsim_lint CLI — see tools/lint/linter.h and docs/static-analysis.md.
//
//   storsim_lint --check src bench tests            # gate (default mode)
//   storsim_lint --write-baseline lint.baseline src # accept current findings
//   storsim_lint --baseline lint.baseline src       # fail only on NEW findings
//   storsim_lint --list-suppressions src            # audit inline allow()s
//   storsim_lint --format=json src                  # machine-readable report
//   storsim_lint --changed-only src                 # scope to git diff vs HEAD
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/linter.h"
#include "util/file.h"

namespace {

using namespace storsubsim;  // tool code, not a header

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] <file-or-dir>...\n"
               "\n"
               "Static determinism & hygiene checks for the storsubsim tree.\n"
               "Per-file rules: nondeterminism, unordered-iter, rng-discipline,\n"
               "                header-hygiene, alloc-hotpath, timer-discipline, file-publish.\n"
               "Cross-TU rules: view-lifetime, error-discipline, layering,\n"
               "                lock-discipline.\n"
               "\n"
               "  --check                 report findings, exit 1 if any (default)\n"
               "  --baseline FILE         ignore findings recorded in FILE\n"
               "  --write-baseline FILE   record current findings into FILE and exit 0\n"
               "  --root DIR              report paths relative to DIR (default: cwd)\n"
               "  --format=json           emit one JSON report object on stdout\n"
               "  --changed-only[=REF]    lint only files changed vs REF (default HEAD)\n"
               "  --list-suppressions     also print every honoured inline allow()\n"
               "  --quiet                 suppress the summary line\n",
               argv0);
  return 2;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// `git diff --name-only REF` + untracked files, as repo-relative paths.
bool git_changed_files(const std::string& ref, std::vector<std::string>* out) {
  const std::string cmd = "git diff --name-only " + ref +
                          " -- . && git ls-files --others --exclude-standard";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return false;
  std::string line;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) {
    line = buf;
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.pop_back();
    if (!line.empty()) out->push_back(line);
  }
  return pclose(pipe) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, write_baseline_path, root = ".";
  std::string changed_ref;
  bool changed_only = false, json = false, list_suppressions = false, quiet = false;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    if (arg == "--check") {
      // default mode; accepted for self-documenting invocations
    } else if (arg == "--baseline") {
      if (!value(&baseline_path)) return usage(argv[0]);
    } else if (arg == "--write-baseline") {
      if (!value(&write_baseline_path)) return usage(argv[0]);
    } else if (arg == "--root") {
      if (!value(&root)) return usage(argv[0]);
    } else if (arg == "--format=json") {
      json = true;
    } else if (arg == "--format=text") {
      json = false;
    } else if (arg.starts_with("--format=")) {
      std::fprintf(stderr, "storsim_lint: unknown format '%s'\n", arg.c_str() + 9);
      return usage(argv[0]);
    } else if (arg == "--changed-only") {
      changed_only = true;
      changed_ref = "HEAD";
    } else if (arg.starts_with("--changed-only=")) {
      changed_only = true;
      changed_ref = arg.substr(15);
    } else if (arg == "--list-suppressions") {
      list_suppressions = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg.starts_with("--")) {
      std::fprintf(stderr, "storsim_lint: unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage(argv[0]);

  const lint::LintOptions options;
  std::vector<std::string> errors;
  auto sources = lint::collect_sources(paths, root, options, &errors);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "storsim_lint: %s\n", e.c_str());
  }
  if (!errors.empty()) return 2;

  if (changed_only) {
    std::vector<std::string> changed;
    if (!git_changed_files(changed_ref, &changed)) {
      std::fprintf(stderr, "storsim_lint: git diff --name-only %s failed\n",
                   changed_ref.c_str());
      return 2;
    }
    sources = lint::filter_changed(std::move(sources), changed);
  }

  lint::TreeReport report = lint::lint_tree(sources, options, &errors);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "storsim_lint: %s\n", e.c_str());
  }
  if (!errors.empty()) return 2;

  if (!write_baseline_path.empty()) {
    const std::string baseline = lint::serialize_baseline(report.findings);
    if (util::publish_file(write_baseline_path, baseline) != 0) {
      std::fprintf(stderr, "storsim_lint: cannot write %s\n", write_baseline_path.c_str());
      return 2;
    }
    if (!quiet) {
      std::printf("storsim_lint: wrote %zu finding(s) to baseline %s\n",
                  report.findings.size(), write_baseline_path.c_str());
    }
    return 0;
  }

  if (!baseline_path.empty()) {
    std::string text;
    if (!read_file(baseline_path, &text)) {
      std::fprintf(stderr, "storsim_lint: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::vector<std::string> baseline_errors;
    auto baseline = lint::parse_baseline(text, &baseline_errors);
    for (const std::string& e : baseline_errors) {
      std::fprintf(stderr, "storsim_lint: %s: %s\n", baseline_path.c_str(), e.c_str());
    }
    report.findings = lint::apply_baseline(std::move(report.findings), std::move(baseline));
  }

  if (json) {
    std::fputs(lint::render_json_report(report).c_str(), stdout);
    return report.findings.empty() ? 0 : 1;
  }

  for (const auto& f : report.findings) {
    std::fputs(lint::format_finding(f).c_str(), stdout);
  }
  if (list_suppressions) {
    for (const auto& s : report.suppressions) {
      std::printf("%s:%zu: suppressed [%s] reason: %s\n", s.path.c_str(), s.line,
                  std::string(lint::rule_name(s.rule)).c_str(), s.reason.c_str());
    }
  }
  if (!quiet) {
    std::printf("storsim_lint: %zu file(s), %zu finding(s), %zu suppression(s) honoured\n",
                report.file_count, report.findings.size(), report.suppressions.size());
  }
  return report.findings.empty() ? 0 : 1;
}
