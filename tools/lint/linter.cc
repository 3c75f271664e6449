// Engine orchestration: source collection, the two-phase lint_tree driver
// (parallel phase 1, indexed phase 2, deterministic merge), baselines, and
// report rendering. The scanning substrate is scan.cc, the cross-TU index is
// index.cc, and the rules live in rules_*.cc.
#include "lint/linter.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lint/index.h"
#include "lint/scan.h"
#include "obs/json.h"
#include "util/parallel.h"

namespace storsubsim::lint {

std::string_view rule_name(Rule rule) noexcept {
  switch (rule) {
    case Rule::kNondeterminism: return "nondeterminism";
    case Rule::kUnorderedIter: return "unordered-iter";
    case Rule::kRngDiscipline: return "rng-discipline";
    case Rule::kHeaderHygiene: return "header-hygiene";
    case Rule::kAllocHotpath: return "alloc-hotpath";
    case Rule::kTimerDiscipline: return "timer-discipline";
    case Rule::kFilePublish: return "file-publish";
    case Rule::kViewLifetime: return "view-lifetime";
    case Rule::kErrorDiscipline: return "error-discipline";
    case Rule::kLayering: return "layering";
    case Rule::kLockDiscipline: return "lock-discipline";
    case Rule::kAnalysisOverload: return "analysis-overload";
    case Rule::kBadSuppression: return "bad-suppression";
  }
  return "unknown";
}

std::optional<Rule> rule_from_name(std::string_view name) noexcept {
  for (const Rule r : kAllRules) {
    if (rule_name(r) == name) return r;
  }
  return std::nullopt;
}

std::string normalize_path(std::string_view path, std::string_view root) {
  namespace fs = std::filesystem;
  fs::path p = fs::path(std::string(path)).lexically_normal();
  if (!root.empty()) {
    const fs::path abs_p = p.is_absolute() ? p : fs::absolute(p).lexically_normal();
    const fs::path abs_root =
        fs::absolute(fs::path(std::string(root))).lexically_normal();
    const fs::path rel = abs_p.lexically_relative(abs_root);
    if (!rel.empty() && rel.native()[0] != '.') p = rel;
  }
  std::string out = p.generic_string();
  if (out.starts_with("./")) out.erase(0, 2);
  return out;
}

std::vector<SourceFile> collect_sources(const std::vector<std::string>& paths,
                                        std::string_view root, const LintOptions& options,
                                        std::vector<std::string>* errors) {
  namespace fs = std::filesystem;
  static constexpr std::string_view kExtensions[] = {".h",   ".hh",  ".hpp", ".hxx",
                                                     ".cc",  ".cpp", ".cxx"};
  auto lintable = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return std::find(std::begin(kExtensions), std::end(kExtensions), ext) !=
           std::end(kExtensions);
  };
  auto skipped = [&](const fs::path& dir) {
    const std::string name = dir.filename().string();
    return std::find(options.skip_dirs.begin(), options.skip_dirs.end(), name) !=
           options.skip_dirs.end();
  };

  std::vector<SourceFile> out;
  for (const std::string& arg : paths) {
    std::error_code ec;
    const fs::path p(arg);
    if (fs::is_directory(p, ec)) {
      fs::recursive_directory_iterator it(p, fs::directory_options::skip_permission_denied,
                                          ec), end;
      if (ec) {
        if (errors != nullptr) errors->push_back(arg + ": " + ec.message());
        continue;
      }
      for (; it != end; it.increment(ec)) {
        if (ec) break;
        if (it->is_directory(ec) && skipped(it->path())) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file(ec) && lintable(it->path())) {
          out.push_back(SourceFile{normalize_path(it->path().string(), root),
                                   it->path().string()});
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      out.push_back(SourceFile{normalize_path(arg, root), arg});
    } else {
      if (errors != nullptr) errors->push_back(arg + ": not a file or directory");
    }
  }
  // Filesystem iteration order is not specified; reports must be stable.
  std::sort(out.begin(), out.end(), [](const SourceFile& a, const SourceFile& b) {
    return a.display_path < b.display_path;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const SourceFile& a, const SourceFile& b) {
                          return a.display_path == b.display_path;
                        }),
            out.end());
  return out;
}

std::vector<SourceFile> filter_changed(std::vector<SourceFile> sources,
                                       const std::vector<std::string>& changed) {
  std::vector<std::string> wanted = changed;
  std::sort(wanted.begin(), wanted.end());
  std::vector<SourceFile> out;
  for (SourceFile& s : sources) {
    if (std::binary_search(wanted.begin(), wanted.end(), s.display_path)) {
      out.push_back(std::move(s));
    }
  }
  return out;
}

namespace {

/// Phase-1 result for one slot of the parallel scan.
struct Slot {
  bool read_ok = true;
  std::string error;
  std::string contents;
  FileReport report;
  FileEntry entry;
};

/// The shared engine body: `contents` must already be loaded into the slots.
TreeReport run_engine(std::vector<Slot>& slots, const LintOptions& options) {
  // Phase 1 (parallel, deterministic): per-file rules + per-file index entry,
  // written into pre-sized slots and merged in index order.
  util::parallel_for(slots.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      Slot& slot = slots[i];
      if (!slot.read_ok) continue;
      slot.report = lint_source(slot.entry.display_path, slot.contents, options);
      slot.entry = index_file(std::move(slot.entry.display_path), slot.contents);
    }
  });

  TreeReport report;
  std::vector<FileEntry> entries;
  entries.reserve(slots.size());
  for (Slot& slot : slots) {
    if (!slot.read_ok) continue;
    ++report.file_count;
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(slot.report.findings.begin()),
                           std::make_move_iterator(slot.report.findings.end()));
    report.suppressions.insert(
        report.suppressions.end(),
        std::make_move_iterator(slot.report.suppressions.begin()),
        std::make_move_iterator(slot.report.suppressions.end()));
    entries.push_back(std::move(slot.entry));
  }

  // Phase 2: semantic rules over the cross-TU index, then inline-allow
  // matching against the annotations phase 1 already honoured per file.
  const TreeIndex index = build_index(std::move(entries));
  std::vector<Finding> tree_findings;
  check_view_lifetime(index, &tree_findings);
  check_error_discipline(index, &tree_findings);
  check_layering(index, &tree_findings);
  check_lock_discipline(index, &tree_findings);
  check_analysis_overload(index, &tree_findings);
  for (Finding& f : tree_findings) {
    bool suppressed = false;
    for (const FileEntry& e : index.files) {
      if (e.display_path != f.path) continue;
      for (const Annotation& a : e.annotations) {
        if (a.target_line == f.line && a.rule == f.rule) suppressed = true;
      }
      break;
    }
    if (!suppressed) report.findings.push_back(std::move(f));
  }

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return rule_name(a.rule) < rule_name(b.rule);
              return a.message < b.message;
            });
  std::sort(report.suppressions.begin(), report.suppressions.end(),
            [](const Suppression& a, const Suppression& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return rule_name(a.rule) < rule_name(b.rule);
            });
  return report;
}

}  // namespace

TreeReport lint_tree(const std::vector<SourceFile>& sources,
                     const LintOptions& options,
                     std::vector<std::string>* errors) {
  std::vector<Slot> slots(sources.size());
  // Reads happen in the parallel phase too, but failures are reported in
  // slot order, so the error list stays deterministic.
  util::parallel_for(slots.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      Slot& slot = slots[i];
      slot.entry.display_path = sources[i].display_path;
      std::ifstream in(sources[i].fs_path, std::ios::binary);
      if (!in) {
        slot.read_ok = false;
        slot.error = "cannot read " + sources[i].fs_path;
        continue;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      slot.contents = buf.str();
    }
  });
  for (const Slot& slot : slots) {
    if (!slot.read_ok && errors != nullptr) errors->push_back(slot.error);
  }
  return run_engine(slots, options);
}

TreeReport lint_tree_memory(const std::vector<MemoryFile>& files,
                            const LintOptions& options) {
  std::vector<Slot> slots(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    slots[i].entry.display_path = files[i].display_path;
    slots[i].contents = files[i].contents;
  }
  return run_engine(slots, options);
}

std::string render_json_report(const TreeReport& report) {
  std::string out;
  out += "{\"storsim_lint\": 1, \"files\": " + std::to_string(report.file_count);
  out += ", \"finding_count\": " + std::to_string(report.findings.size());
  out += ", \"suppression_count\": " + std::to_string(report.suppressions.size());
  out += ", \"findings\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    if (i > 0) out += ", ";
    out += "{\"path\": \"" + obs::json_escape(f.path) + "\"";
    out += ", \"line\": " + std::to_string(f.line);
    out += ", \"rule\": \"" + std::string(rule_name(f.rule)) + "\"";
    out += ", \"message\": \"" + obs::json_escape(f.message) + "\"";
    out += ", \"excerpt\": \"" + obs::json_escape(f.excerpt) + "\"}";
  }
  out += "], \"suppressions\": [";
  for (std::size_t i = 0; i < report.suppressions.size(); ++i) {
    const Suppression& s = report.suppressions[i];
    if (i > 0) out += ", ";
    out += "{\"path\": \"" + obs::json_escape(s.path) + "\"";
    out += ", \"line\": " + std::to_string(s.line);
    out += ", \"rule\": \"" + std::string(rule_name(s.rule)) + "\"";
    out += ", \"reason\": \"" + obs::json_escape(s.reason) + "\"}";
  }
  out += "]}\n";
  return out;
}

std::string baseline_key(const Finding& finding) {
  return std::string(rule_name(finding.rule)) + "\t" + finding.path + "\t" +
         hex64(fnv1a(finding.excerpt));
}

std::string serialize_baseline(std::vector<Finding> findings) {
  std::vector<std::string> lines;
  lines.reserve(findings.size());
  for (const Finding& f : findings) {
    lines.push_back(baseline_key(f) + "\t" + f.excerpt);
  }
  std::sort(lines.begin(), lines.end());
  std::string out =
      "# storsim_lint baseline: accepted findings, one per line.\n"
      "# rule <TAB> path <TAB> excerpt-hash <TAB> excerpt\n"
      "# Regenerate with: storsim_lint --write-baseline <file> <paths...>\n";
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::map<std::string, int> parse_baseline(std::string_view text,
                                          std::vector<std::string>* errors) {
  std::map<std::string, int> out;
  std::size_t pos = 0, lineno = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    ++lineno;
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    const std::string trimmed = trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    // Key is the first three tab-separated fields.
    std::size_t t1 = line.find('\t');
    std::size_t t2 = t1 == std::string_view::npos ? t1 : line.find('\t', t1 + 1);
    if (t2 == std::string_view::npos) {
      if (errors != nullptr) {
        errors->push_back("baseline line " + std::to_string(lineno) + ": malformed entry");
      }
      continue;
    }
    std::size_t t3 = line.find('\t', t2 + 1);
    const std::string_view key =
        line.substr(0, t3 == std::string_view::npos ? line.size() : t3);
    ++out[std::string(key)];
  }
  return out;
}

std::vector<Finding> apply_baseline(std::vector<Finding> findings,
                                    std::map<std::string, int> baseline) {
  std::vector<Finding> fresh;
  for (Finding& f : findings) {
    const auto it = baseline.find(baseline_key(f));
    if (it != baseline.end() && it->second > 0) {
      --it->second;
      continue;
    }
    fresh.push_back(std::move(f));
  }
  return fresh;
}

std::string format_finding(const Finding& finding) {
  std::ostringstream os;
  os << finding.path << ":" << finding.line << ": [" << rule_name(finding.rule) << "] "
     << finding.message << "\n";
  if (!finding.excerpt.empty()) os << "    | " << finding.excerpt << "\n";
  return os.str();
}

}  // namespace storsubsim::lint
