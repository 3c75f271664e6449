// Tests for storsim_lint: each rule against its fixture corpus (in-process,
// via the lint library), plus suppression handling, baseline round-trips,
// scanner scoping, and CLI exit codes (via the installed binary).
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/linter.h"
#include "obs/json.h"
#include "util/parallel.h"

namespace lint = storsubsim::lint;
namespace obs = storsubsim::obs;
namespace fs = std::filesystem;

namespace {

std::string fixture_path(const std::string& subpath) {
  return std::string(STORSUBSIM_LINT_FIXTURES) + "/" + subpath;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Lints a fixture under the display path the real scan would use, so the
/// src/ and bench/ scoping of rules applies exactly as in production.
lint::FileReport lint_fixture(const std::string& subpath) {
  return lint::lint_source("tests/lint_fixtures/" + subpath, read_file(fixture_path(subpath)));
}

std::size_t count_rule(const lint::FileReport& report, lint::Rule rule) {
  std::size_t n = 0;
  for (const auto& f : report.findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(STORSUBSIM_LINT_BIN) + " " + args + " > /dev/null 2> /dev/null";
  const int rc = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(rc));
  return WEXITSTATUS(rc);
}

/// run_cli, but with stdout captured (stderr still dropped).
int run_cli_capture(const std::string& args, std::string* out) {
  const std::string cmd = std::string(STORSUBSIM_LINT_BIN) + " " + args + " 2> /dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) return -1;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out->append(buf, n);
  const int rc = pclose(pipe);
  EXPECT_TRUE(WIFEXITED(rc));
  return WEXITSTATUS(rc);
}

/// Loads fixtures into memory under their production display paths and runs
/// the full two-phase engine (the phase-2 rules need the cross-TU index, so
/// lint_source cannot drive them).
lint::TreeReport lint_fixture_tree(const std::vector<std::string>& subpaths) {
  std::vector<lint::MemoryFile> files;
  for (const auto& s : subpaths) {
    files.push_back(lint::MemoryFile{"tests/lint_fixtures/" + s, read_file(fixture_path(s))});
  }
  return lint::lint_tree_memory(files);
}

std::size_t count_rule(const lint::TreeReport& report, lint::Rule rule) {
  std::size_t n = 0;
  for (const auto& f : report.findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

bool any_finding_contains(const lint::TreeReport& report, const std::string& needle) {
  for (const auto& f : report.findings) {
    if (f.message.find(needle) != std::string::npos ||
        f.excerpt.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// --- rule: nondeterminism ---------------------------------------------------

TEST(NondeterminismRule, FlagsEveryAmbientSourceInSrc) {
  const auto report = lint_fixture("src/bad_nondeterminism.cc");
  EXPECT_EQ(report.findings.size(), 7u);
  EXPECT_EQ(count_rule(report, lint::Rule::kNondeterminism), 7u);
  std::vector<std::string> tokens;
  for (const auto& f : report.findings) {
    tokens.push_back(f.message.substr(0, f.message.find_first_of(":' ")));
  }
  for (const char* expected :
       {"random_device", "srand", "time", "rand", "system_clock", "steady_clock", "getenv"}) {
    EXPECT_NE(std::find(tokens.begin(), tokens.end(), expected), tokens.end())
        << "no finding for " << expected;
  }
}

TEST(NondeterminismRule, MemberNamedTimeAndCommentsAreNotFlagged) {
  // The fixture contains `e.time`, a string mentioning rand(), and comments
  // naming std::random_device — none may trigger (they'd have raised the
  // count above 7, but make the property explicit on a clean file too).
  const auto report = lint_fixture("src/clean_deterministic.cc");
  EXPECT_TRUE(report.findings.empty());
}

TEST(NondeterminismRule, ScopedToSrcOnly) {
  const auto report = lint_fixture("bench/timing_uses_clock.cc");
  EXPECT_TRUE(report.findings.empty()) << "bench/ may time things with wall clocks";
}

TEST(NondeterminismRule, GetenvAllowlistCoversThreadConfig) {
  const std::string snippet = "#include <cstdlib>\n"
                              "int threads() { return std::getenv(\"STORSIM_THREADS\") ? 1 : 0; }\n";
  EXPECT_TRUE(lint::lint_source("src/util/parallel.cc", snippet).findings.empty());
  EXPECT_EQ(lint::lint_source("src/sim/simulator.cc", snippet).findings.size(), 1u);
}

// --- rule: unordered-iter ---------------------------------------------------

TEST(UnorderedIterRule, FlagsRangeForIteratorLoopsAndAlgorithms) {
  const auto report = lint_fixture("src/bad_unordered_iter.cc");
  EXPECT_EQ(count_rule(report, lint::Rule::kUnorderedIter), 5u);
  EXPECT_EQ(report.findings.size(), 5u);
}

TEST(UnorderedIterRule, TracksDeclarationsThroughUsingAliases) {
  const auto report = lint_fixture("src/bad_unordered_iter.cc");
  bool alias_hit = false;
  for (const auto& f : report.findings) {
    if (f.message.find("'per_group'") != std::string::npos) alias_hit = true;
  }
  EXPECT_TRUE(alias_hit) << "GroupIndex alias declaration was not tracked";
}

TEST(UnorderedIterRule, LookupOnlyUsageIsClean) {
  EXPECT_TRUE(lint_fixture("src/clean_unordered_lookup.cc").findings.empty());
}

TEST(UnorderedIterRule, HonoursJustifiedAllowAnnotations) {
  const auto report = lint_fixture("src/allowed_unordered_iter.cc");
  EXPECT_TRUE(report.findings.empty());
  ASSERT_EQ(report.suppressions.size(), 2u);
  EXPECT_EQ(report.suppressions[0].rule, lint::Rule::kUnorderedIter);
  EXPECT_FALSE(report.suppressions[0].reason.empty());
  EXPECT_FALSE(report.suppressions[1].reason.empty());
}

TEST(UnorderedIterRule, ScopedToSrcOnly) {
  const std::string snippet =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m;\n"
      "int sum() { int s = 0; for (auto& [k, v] : m) s += v; return s; }\n";
  EXPECT_EQ(lint::lint_source("src/core/afr.cc", snippet).findings.size(), 1u);
  EXPECT_TRUE(lint::lint_source("bench/table1_overview.cc", snippet).findings.empty());
}

// --- rule: suppression hygiene ----------------------------------------------

TEST(SuppressionRule, ReasonlessOrUnknownAllowIsItselfAFinding) {
  const auto report = lint_fixture("src/bad_suppression.cc");
  EXPECT_EQ(count_rule(report, lint::Rule::kBadSuppression), 2u);
  // And the reasonless allow() must NOT have suppressed the real finding.
  EXPECT_EQ(count_rule(report, lint::Rule::kUnorderedIter), 1u);
  EXPECT_TRUE(report.suppressions.empty());
}

// --- rule: rng-discipline ---------------------------------------------------

TEST(RngDisciplineRule, FlagsAdHocEnginesAndDistributions) {
  const auto report = lint_fixture("src/bad_rng_discipline.cc");
  EXPECT_EQ(count_rule(report, lint::Rule::kRngDiscipline), 5u);
  EXPECT_EQ(report.findings.size(), 5u);
}

TEST(RngDisciplineRule, ProjectNamesEndingInDistributionAreClean) {
  const std::string snippet =
      "namespace stats { double bootstrap_distribution(double x); }\n"
      "double f() { return stats::bootstrap_distribution(1.0); }\n";
  EXPECT_TRUE(lint::lint_source("src/stats_client.cc", snippet).findings.empty());
}

TEST(RngDisciplineRule, StatsRngImplementationIsExempt) {
  const std::string snippet = "#include <random>\nstd::mt19937 legacy_shim;\n";
  EXPECT_TRUE(lint::lint_source("src/stats/distributions.cc", snippet).findings.empty());
  EXPECT_EQ(lint::lint_source("src/sim/scenario.cc", snippet).findings.size(), 1u);
}

// --- rule: header-hygiene ---------------------------------------------------

TEST(HeaderHygieneRule, FlagsMissingGuard) {
  const auto report = lint_fixture("include/bad_missing_guard.h");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, lint::Rule::kHeaderHygiene);
  EXPECT_EQ(report.findings[0].line, 1u);
}

TEST(HeaderHygieneRule, FlagsUsingNamespace) {
  const auto report = lint_fixture("include/bad_using_namespace.h");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, lint::Rule::kHeaderHygiene);
}

TEST(HeaderHygieneRule, CleanHeaderAndClassicGuardPass) {
  EXPECT_TRUE(lint_fixture("include/clean_header.h").findings.empty());
  const std::string guarded =
      "#ifndef FOO_H_\n#define FOO_H_\nint f();\n#endif  // FOO_H_\n";
  EXPECT_TRUE(lint::lint_source("src/foo.h", guarded).findings.empty());
}

TEST(HeaderHygieneRule, SourcesAreNotHeldToHeaderRules) {
  EXPECT_TRUE(lint::lint_source("src/foo.cc", "int f() { return 1; }\n").findings.empty());
}

// --- rule: alloc-hotpath ------------------------------------------------------

TEST(AllocHotpathRule, FlagsStreamsStdToStringAndLiteralConcat) {
  const auto report = lint_fixture("src/log/bad_alloc_hotpath.cc");
  EXPECT_EQ(count_rule(report, lint::Rule::kAllocHotpath), 5u);
  EXPECT_EQ(report.findings.size(), 5u);
}

TEST(AllocHotpathRule, LineWriterIdiomIsClean) {
  EXPECT_TRUE(lint_fixture("src/log/clean_linewriter.cc").findings.empty());
}

TEST(AllocHotpathRule, CoversTheColumnarStoreCodec) {
  const auto report = lint_fixture("src/store/bad_alloc_store.cc");
  EXPECT_EQ(count_rule(report, lint::Rule::kAllocHotpath), 3u);
  EXPECT_EQ(report.findings.size(), 3u);
}

TEST(AllocHotpathRule, ToCharsAppendIdiomIsClean) {
  EXPECT_TRUE(lint_fixture("src/store/clean_columnar.cc").findings.empty());
}

TEST(AllocHotpathRule, CoversTheServeLayer) {
  const auto report = lint_fixture("src/serve/bad_serve_hotpath.cc");
  EXPECT_EQ(count_rule(report, lint::Rule::kAllocHotpath), 3u);
  // The same fixture exercises the serve scoping of timer-discipline: the
  // <chrono> include and the std::chrono:: use are timer findings, the raw
  // steady_clock read is independently nondeterminism.
  EXPECT_EQ(count_rule(report, lint::Rule::kTimerDiscipline), 2u);
  EXPECT_EQ(count_rule(report, lint::Rule::kNondeterminism), 1u);
}

TEST(AllocHotpathRule, ServeAppendSpanIdiomIsClean) {
  EXPECT_TRUE(lint_fixture("src/serve/clean_serve_hotpath.cc").findings.empty());
}

TEST(AllocHotpathRule, ProjectToStringOverloadsAreNotFlagged) {
  // The log layer's own to_string(Severity) must not be confused with
  // std::to_string — only the std-qualified call allocates a temporary.
  const std::string snippet =
      "namespace sev { enum class Severity { kInfo }; const char* to_string(Severity); }\n"
      "const char* f() { return sev::to_string(sev::Severity::kInfo); }\n"
      "const char* g(sev::Severity s) { return to_string(s); }\n";
  EXPECT_TRUE(lint::lint_source("src/log/record.cc", snippet).findings.empty());
  const std::string std_call =
      "#include <string>\nstd::string h(int v) { return std::to_string(v); }\n";
  EXPECT_EQ(lint::lint_source("src/log/record.cc", std_call).findings.size(), 1u);
}

TEST(AllocHotpathRule, ScopedToLogLayerAndPipelineOnly) {
  const std::string snippet =
      "#include <sstream>\n"
      "std::string f(int v) { std::ostringstream os; os << v; return os.str(); }\n";
  EXPECT_EQ(lint::lint_source("src/log/emitter.cc", snippet).findings.size(), 1u);
  EXPECT_EQ(lint::lint_source("src/core/pipeline.cc", snippet).findings.size(), 1u);
  EXPECT_EQ(lint::lint_source("src/store/writer.cc", snippet).findings.size(), 1u);
  EXPECT_EQ(lint::lint_source("src/store/reader.cc", snippet).findings.size(), 1u);
  EXPECT_EQ(lint::lint_source("src/serve/daemon.cc", snippet).findings.size(), 1u);
  EXPECT_TRUE(lint::lint_source("src/core/afr.cc", snippet).findings.empty())
      << "cold analysis code may use streams";
  EXPECT_TRUE(lint::lint_source("bench/parallel_baseline.cc", snippet).findings.empty())
      << "bench code may use streams";
  EXPECT_TRUE(lint::lint_source("tests/log/emitter_parser_test.cc", snippet).findings.empty())
      << "test code may use streams";
}

TEST(AllocHotpathRule, AppendAssignAndArithmeticPlusAreClean) {
  const std::string snippet =
      "#include <string>\n"
      "void f(std::string& buf, int a, int b) {\n"
      "  buf += \"chunk\";\n"
      "  int c = a + b;\n"
      "  ++c;\n"
      "  (void)c;\n"
      "}\n";
  EXPECT_TRUE(lint::lint_source("src/log/emitter.cc", snippet).findings.empty());
}

// --- rule: timer-discipline ---------------------------------------------------

TEST(TimerDisciplineRule, FlagsStageTimerChronoAndMonotonicSeconds) {
  const auto report = lint_fixture("src/sim/bad_timer_discipline.cc");
  // <chrono> include, StageTimer decl, std::chrono:: use, monotonic_seconds().
  EXPECT_EQ(count_rule(report, lint::Rule::kTimerDiscipline), 4u);
  // The raw steady_clock read is independently a nondeterminism finding.
  EXPECT_EQ(count_rule(report, lint::Rule::kNondeterminism), 1u);
}

TEST(TimerDisciplineRule, ObsSpanIdiomIsClean) {
  EXPECT_TRUE(lint_fixture("src/sim/clean_span_timing.cc").findings.empty());
}

TEST(TimerDisciplineRule, ScopedToInstrumentedSubsystemsOnly) {
  const std::string snippet =
      "#include \"util/stage_timer.h\"\n"
      "double f() { storsubsim::util::StageTimer t; return t.seconds(); }\n";
  EXPECT_EQ(lint::lint_source("src/sim/simulator.cc", snippet).findings.size(), 1u);
  EXPECT_EQ(lint::lint_source("src/log/parser.cc", snippet).findings.size(), 1u);
  EXPECT_EQ(lint::lint_source("src/store/writer.cc", snippet).findings.size(), 1u);
  EXPECT_TRUE(lint::lint_source("src/obs/span.cc", snippet).findings.empty())
      << "src/obs owns the clock; the rule must not recurse into it";
  EXPECT_TRUE(lint::lint_source("src/core/afr.cc", snippet).findings.empty())
      << "cold analysis code is out of scope";
  EXPECT_TRUE(lint::lint_source("bench/pipeline_throughput.cc", snippet).findings.empty())
      << "bench code may time however it likes";
}

// --- rule: file-publish -------------------------------------------------------

TEST(FilePublishRule, FlagsOfstreamWritingFopenModesAndCreat) {
  const auto report = lint_fixture("src/bad_file_publish.cc");
  // ofstream, fopen "wb" / "a" / "r+b" / non-literal mode, creat.
  EXPECT_EQ(count_rule(report, lint::Rule::kFilePublish), 6u);
  EXPECT_EQ(report.findings.size(), 6u);
}

TEST(FilePublishRule, ReadsAndPublishFileAreClean) {
  EXPECT_TRUE(lint_fixture("src/clean_file_publish.cc").findings.empty());
}

TEST(FilePublishRule, ScopedToSrcOutsideTheOneWritePath) {
  const std::string snippet =
      "#include <fstream>\n"
      "void f(const char* p) { std::ofstream out(p); }\n";
  EXPECT_EQ(lint::lint_source("src/store/writer.cc", snippet).findings.size(), 1u);
  EXPECT_EQ(lint::lint_source("src/obs/manifest.cc", snippet).findings.size(), 1u);
  EXPECT_TRUE(lint::lint_source("src/util/file.cc", snippet).findings.empty())
      << "src/util/file.cc is the one file-creating write path";
  EXPECT_TRUE(lint::lint_source("tools/storsubsim_cli.cc", snippet).findings.empty())
      << "the CLI's streamed simulate output is out of scope";
  EXPECT_TRUE(lint::lint_source("bench/store_bench.cc", snippet).findings.empty());
}

// --- baselines --------------------------------------------------------------

TEST(Baseline, RoundTripSilencesAcceptedFindings) {
  auto bad = lint_fixture("src/bad_unordered_iter.cc");
  ASSERT_FALSE(bad.findings.empty());
  const std::string text = lint::serialize_baseline(bad.findings);

  std::vector<std::string> errors;
  auto baseline = lint::parse_baseline(text, &errors);
  EXPECT_TRUE(errors.empty());
  const auto fresh = lint::apply_baseline(lint_fixture("src/bad_unordered_iter.cc").findings,
                                          std::move(baseline));
  EXPECT_TRUE(fresh.empty());
}

TEST(Baseline, NewFindingsSurviveAnUnrelatedBaseline) {
  auto accepted = lint_fixture("src/bad_unordered_iter.cc");
  auto baseline = lint::parse_baseline(lint::serialize_baseline(accepted.findings), nullptr);
  const auto fresh = lint::apply_baseline(lint_fixture("src/bad_rng_discipline.cc").findings,
                                          std::move(baseline));
  EXPECT_EQ(fresh.size(), 5u);
}

TEST(Baseline, KeysSurviveLineDriftButNotContentChanges) {
  const std::string v1 = "#include <cstdlib>\nint f() { return std::rand(); }\n";
  const std::string v2 =  // same line, pushed down two lines
      "#include <cstdlib>\n\n\nint f() { return std::rand(); }\n";
  const std::string v3 = "#include <cstdlib>\nint g() { return std::rand(); }\n";
  const auto f1 = lint::lint_source("src/a.cc", v1).findings;
  const auto f2 = lint::lint_source("src/a.cc", v2).findings;
  const auto f3 = lint::lint_source("src/a.cc", v3).findings;
  ASSERT_EQ(f1.size(), 1u);
  ASSERT_EQ(f2.size(), 1u);
  ASSERT_EQ(f3.size(), 1u);
  EXPECT_EQ(lint::baseline_key(f1[0]), lint::baseline_key(f2[0]));
  EXPECT_NE(lint::baseline_key(f1[0]), lint::baseline_key(f3[0]));
}

// --- scanner ----------------------------------------------------------------

TEST(CollectSources, RecursiveScanSkipsTheFixtureCorpus) {
  const lint::LintOptions options;
  std::vector<std::string> errors;
  const auto sources =
      lint::collect_sources({STORSUBSIM_TESTS_DIR}, STORSUBSIM_TESTS_DIR, options, &errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_FALSE(sources.empty());
  bool found_self = false;
  for (const auto& s : sources) {
    EXPECT_EQ(s.display_path.find("lint_fixtures"), std::string::npos) << s.display_path;
    if (s.display_path == "tools/lint_test.cc") found_self = true;
  }
  EXPECT_TRUE(found_self);
}

TEST(CollectSources, ExplicitlyNamedFixtureFilesAreLinted) {
  const lint::LintOptions options;
  std::vector<std::string> errors;
  const auto sources = lint::collect_sources({fixture_path("src/bad_rng_discipline.cc")},
                                             STORSUBSIM_LINT_FIXTURES, options, &errors);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0].display_path, "src/bad_rng_discipline.cc");
}

// --- CLI exit codes ----------------------------------------------------------

TEST(Cli, ExitsNonzeroOnEveryViolatingFixture) {
  for (const char* bad : {"src/bad_nondeterminism.cc", "src/bad_unordered_iter.cc",
                          "src/bad_rng_discipline.cc", "src/bad_suppression.cc",
                          "src/log/bad_alloc_hotpath.cc", "src/store/bad_alloc_store.cc",
                          "src/sim/bad_timer_discipline.cc", "src/serve/bad_serve_hotpath.cc",
                          "src/bad_file_publish.cc",
                          "include/bad_missing_guard.h", "include/bad_using_namespace.h"}) {
    EXPECT_EQ(run_cli("--check " + fixture_path(bad)), 1) << bad;
  }
}

TEST(Cli, ExitsZeroOnCleanFixtures) {
  for (const char* good :
       {"src/clean_deterministic.cc", "src/clean_unordered_lookup.cc",
        "src/allowed_unordered_iter.cc", "src/log/clean_linewriter.cc",
        "src/store/clean_columnar.cc", "src/sim/clean_span_timing.cc",
        "src/serve/clean_serve_hotpath.cc", "src/clean_file_publish.cc",
        "bench/timing_uses_clock.cc",
        "include/clean_header.h"}) {
    EXPECT_EQ(run_cli("--check " + fixture_path(good)), 0) << good;
  }
}

TEST(Cli, BaselineWorkflowAcceptsOldFindingsAndCatchesNewOnes) {
  const std::string baseline = testing::TempDir() + "/storsim_lint_test.baseline";
  const std::string bad = fixture_path("src/bad_unordered_iter.cc");
  EXPECT_EQ(run_cli("--write-baseline " + baseline + " " + bad), 0);
  EXPECT_EQ(run_cli("--baseline " + baseline + " " + bad), 0);
  // A different violating file is NOT covered by that baseline.
  EXPECT_EQ(run_cli("--baseline " + baseline + " " + fixture_path("src/bad_rng_discipline.cc")),
            1);
  fs::remove(baseline);
}

TEST(Cli, UsageErrorsExitTwo) {
  EXPECT_EQ(run_cli(""), 2);                                  // no paths
  EXPECT_EQ(run_cli("--no-such-flag src"), 2);                // unknown option
  EXPECT_EQ(run_cli("--check /no/such/path/exists.cc"), 2);   // bad path
}

// --- rule: view-lifetime ------------------------------------------------------

TEST(ViewLifetimeRule, FlagsEveryEscapePattern) {
  // Return of a local owner, return of a by-value owning parameter, a member
  // store in a body, and a member store in a ctor-init: four findings.
  const auto report = lint_fixture_tree({"view_lifetime/src/bad_view_lifetime.cc"});
  EXPECT_EQ(count_rule(report, lint::Rule::kViewLifetime), 4u);
  EXPECT_TRUE(any_finding_contains(report, "dies when the function returns"));
  EXPECT_TRUE(any_finding_contains(report, "constructor stores a view"));
}

TEST(ViewLifetimeRule, CallerOwnedBuffersAndOwningEscapesAreClean) {
  const auto report = lint_fixture_tree({"view_lifetime/src/clean_view_lifetime.cc"});
  EXPECT_TRUE(report.findings.empty()) << lint::render_json_report(report);
}

TEST(ViewLifetimeRule, ScopedToSrcOnly) {
  const auto report = lint::lint_tree_memory(
      {{"bench/view_probe.cc",
        read_file(fixture_path("view_lifetime/src/bad_view_lifetime.cc"))}});
  EXPECT_EQ(count_rule(report, lint::Rule::kViewLifetime), 0u);
}

// --- rule: error-discipline ---------------------------------------------------

TEST(ErrorDisciplineRule, FlagsUnannotatedApisAndDiscardedResults) {
  const auto report = lint_fixture_tree(
      {"error_discipline/src/result.h", "error_discipline/src/bad_error_discipline.cc"});
  EXPECT_EQ(count_rule(report, lint::Rule::kErrorDiscipline), 4u);
  EXPECT_TRUE(any_finding_contains(report, "no declaration is [[nodiscard]]"));
  EXPECT_TRUE(any_finding_contains(report, "is discarded"));
}

TEST(ErrorDisciplineRule, VoidCastIsStillADiscard) {
  const auto report = lint_fixture_tree(
      {"error_discipline/src/result.h", "error_discipline/src/bad_error_discipline.cc"});
  EXPECT_TRUE(any_finding_contains(report, "(void)checked_parse(2);"));
}

TEST(ErrorDisciplineRule, NodiscardOnOneDeclarationCoversTheTree) {
  // clean_error_discipline.cc defines checked_parse without the attribute;
  // the [[nodiscard]] lives only on the declaration in result.h. The table
  // is keyed across the whole scanned tree, so the pair must come up clean.
  const auto report = lint_fixture_tree(
      {"error_discipline/src/result.h", "error_discipline/src/clean_error_discipline.cc"});
  EXPECT_TRUE(report.findings.empty()) << lint::render_json_report(report);
}

// --- rule: layering -----------------------------------------------------------

TEST(LayeringRule, FlagsIncludesOutsideTheDeclaredClosure) {
  const auto report = lint_fixture_tree({"layering/src/store/bad_cross_layer.cc"});
  EXPECT_EQ(count_rule(report, lint::Rule::kLayering), 2u);
  EXPECT_TRUE(any_finding_contains(report, "breaks the layering DAG"));
  EXPECT_FALSE(any_finding_contains(report, "util/parallel.h"))
      << "util is inside store's closure and must not be flagged";
}

TEST(LayeringRule, ClosureIncludesAreClean) {
  const auto report = lint_fixture_tree({"layering/src/store/clean_store_layer.cc"});
  EXPECT_TRUE(report.findings.empty()) << lint::render_json_report(report);
}

TEST(LayeringRule, ServeClosureReachesEveryLayerBelow) {
  const auto report = lint_fixture_tree({"layering/src/serve/clean_serve_layer.cc"});
  EXPECT_TRUE(report.findings.empty()) << lint::render_json_report(report);
}

TEST(LayeringRule, CoreMustNotReachUpIntoServe) {
  const auto report = lint_fixture_tree({"layering/src/core/bad_core_uses_serve.cc"});
  EXPECT_EQ(count_rule(report, lint::Rule::kLayering), 1u)
      << lint::render_json_report(report);
  EXPECT_TRUE(any_finding_contains(report, "breaks the layering DAG"));
  EXPECT_FALSE(any_finding_contains(report, "store/query.h"))
      << "store is inside core's closure and must not be flagged";
}

TEST(LayeringRule, ReportsTheFullThreeHeaderCycle) {
  const auto report = lint_fixture_tree({"layering/cycle/alpha_ring.h",
                                         "layering/cycle/beta_ring.h",
                                         "layering/cycle/gamma_ring.h"});
  ASSERT_EQ(report.findings.size(), 1u) << lint::render_json_report(report);
  const auto& f = report.findings[0];
  EXPECT_EQ(f.rule, lint::Rule::kLayering);
  EXPECT_NE(f.message.find("include cycle:"), std::string::npos) << f.message;
  for (const char* name : {"alpha_ring.h", "beta_ring.h", "gamma_ring.h"}) {
    EXPECT_NE(f.message.find(name), std::string::npos) << "cycle omits " << name;
  }
}

// --- rule: lock-discipline ----------------------------------------------------

TEST(LockDisciplineRule, FlagsBareCallsAndDoubleLock) {
  const auto report = lint_fixture_tree({"lock_discipline/src/bad_lock_discipline.cc"});
  EXPECT_EQ(count_rule(report, lint::Rule::kLockDiscipline), 3u);
  EXPECT_TRUE(any_finding_contains(report, "bare .lock()"));
  EXPECT_TRUE(any_finding_contains(report, "bare .unlock()"));
  EXPECT_TRUE(any_finding_contains(report, "self-deadlocks"));
}

TEST(LockDisciplineRule, RaiiGuardsSiblingScopesAndDistinctMutexesAreClean) {
  const auto report = lint_fixture_tree({"lock_discipline/src/clean_lock_discipline.cc"});
  EXPECT_TRUE(report.findings.empty()) << lint::render_json_report(report);
}

// --- rule: analysis-overload --------------------------------------------------

TEST(AnalysisOverloadRule, FlagsEveryConcreteBackendRedeclaration) {
  const auto report =
      lint_fixture_tree({"analysis_overload/src/core/bad_analysis_overload.cc"});
  EXPECT_EQ(count_rule(report, lint::Rule::kAnalysisOverload), 4u)
      << lint::render_json_report(report);
  EXPECT_TRUE(any_finding_contains(report, "per-backend overloads were retired"));
  EXPECT_TRUE(any_finding_contains(report, "raid_vulnerability"));
  for (const char* backend : {"Dataset", "EventStore", "ShardStore"}) {
    EXPECT_TRUE(any_finding_contains(report, backend)) << backend;
  }
}

TEST(AnalysisOverloadRule, SourceOverloadsHelpersAndCallSitesAreClean) {
  const auto report =
      lint_fixture_tree({"analysis_overload/src/core/clean_analysis_overload.cc"});
  EXPECT_TRUE(report.findings.empty()) << lint::render_json_report(report);
}

// --- rule: unused-export -------------------------------------------------------

namespace {

constexpr const char* kWidgetTree[] = {"src/widget/widget.h", "src/widget/widget.cc",
                                       "bench/widget_bench.cc", "examples/widget_demo.cpp",
                                       "tests/widget_test.cc"};

/// Lints unused_export/ fixture files under display paths relative to that
/// directory, as if it were the repo root (the rule keys off src/, bench/,
/// examples/ and tests/ as the first path component).
lint::TreeReport lint_widget_tree(const std::vector<std::string>& subpaths) {
  std::vector<lint::MemoryFile> files;
  for (const auto& s : subpaths) {
    files.push_back(lint::MemoryFile{s, read_file(fixture_path("unused_export/" + s))});
  }
  return lint::lint_tree_memory(files);
}

/// The unused-export finding for `name`, or nullptr.
const lint::Finding* unused_export_of(const lint::TreeReport& report, const std::string& name) {
  for (const auto& f : report.findings) {
    if (f.rule == lint::Rule::kUnusedExport && f.message.find("'" + name + "'") == 0) return &f;
  }
  return nullptr;
}

}  // namespace

TEST(UnusedExportRule, HeaderFunctionWithoutACallerIsAFinding) {
  const auto report = lint_widget_tree({std::begin(kWidgetTree), std::end(kWidgetTree)});
  const lint::Finding* orphan = unused_export_of(report, "widget_orphan");
  ASSERT_NE(orphan, nullptr) << lint::render_json_report(report);
  EXPECT_EQ(orphan->path, "src/widget/widget.h");
  EXPECT_EQ(orphan->line, 10u);
  EXPECT_NE(orphan->message.find("delete it"), std::string::npos);
  // The whole tree: orphan, tests-only, own-file-only and the reasonless allow.
  EXPECT_EQ(count_rule(report, lint::Rule::kUnusedExport), 4u)
      << lint::render_json_report(report);
  // Private members are not exports.
  EXPECT_EQ(unused_export_of(report, "resize_to"), nullptr);
  EXPECT_EQ(run_cli("--check --root " + fixture_path("unused_export") + " " +
                    fixture_path("unused_export")),
            1);
}

TEST(UnusedExportRule, ACallerInBenchOrExamplesClearsIt) {
  const auto full = lint_widget_tree({std::begin(kWidgetTree), std::end(kWidgetTree)});
  EXPECT_EQ(unused_export_of(full, "widget_count"), nullptr);
  EXPECT_EQ(unused_export_of(full, "widget_area"), nullptr);
  // Without those callers both are findings.
  const auto src_only = lint_widget_tree({"src/widget/widget.h", "src/widget/widget.cc"});
  EXPECT_NE(unused_export_of(src_only, "widget_count"), nullptr);
  EXPECT_NE(unused_export_of(src_only, "widget_area"), nullptr);
}

TEST(UnusedExportRule, ACallerOnlyInTestsDoesNot) {
  const auto report = lint_widget_tree({std::begin(kWidgetTree), std::end(kWidgetTree)});
  const lint::Finding* volume = unused_export_of(report, "widget_volume");
  ASSERT_NE(volume, nullptr) << lint::render_json_report(report);
  EXPECT_NE(volume->message.find("nothing outside tests calls it"), std::string::npos);
}

TEST(UnusedExportRule, UseOnlyInItsOwnFileIsMadeFileLocal) {
  const auto report = lint_widget_tree({std::begin(kWidgetTree), std::end(kWidgetTree)});
  const lint::Finding* helper = unused_export_of(report, "widget_helper");
  ASSERT_NE(helper, nullptr) << lint::render_json_report(report);
  EXPECT_NE(helper->message.find("make it file-local"), std::string::npos);
}

TEST(UnusedExportRule, AllowWithAReasonIsHonoured) {
  const auto report = lint_widget_tree({std::begin(kWidgetTree), std::end(kWidgetTree)});
  EXPECT_EQ(unused_export_of(report, "widget_documented"), nullptr);
  bool suppressed = false;
  for (const auto& s : report.suppressions) {
    if (s.rule == lint::Rule::kUnusedExport && s.line == 14u) {
      suppressed = true;
      EXPECT_EQ(s.reason, "docs/API.md entry");
    }
  }
  EXPECT_TRUE(suppressed) << lint::render_json_report(report);
}

TEST(UnusedExportRule, AReasonlessAllowIsABadSuppression) {
  const auto report = lint_widget_tree({std::begin(kWidgetTree), std::end(kWidgetTree)});
  bool bad = false;
  for (const auto& f : report.findings) {
    if (f.rule == lint::Rule::kBadSuppression && f.path == "src/widget/widget.h" &&
        f.line == 16u) {
      bad = true;
    }
  }
  EXPECT_TRUE(bad) << lint::render_json_report(report);
  // The malformed allow suppresses nothing.
  EXPECT_NE(unused_export_of(report, "widget_unexplained"), nullptr);
}

// --- the two-phase engine -----------------------------------------------------

TEST(TreeSuppressions, InlineAllowCoversPhaseTwoRules) {
  const std::string snippet =
      "#include <mutex>\n"
      "struct Handoff {\n"
      "  std::mutex mu_;\n"
      "  void warm_start() {\n"
      "    mu_.lock();  // storsim-lint: allow(lock-discipline) reason=adopted by the guard below\n"
      "    std::lock_guard<std::mutex> lk(mu_, std::adopt_lock);\n"
      "  }\n"
      "};\n";
  const auto report = lint::lint_tree_memory({{"src/sim/handoff.cc", snippet}});
  EXPECT_TRUE(report.findings.empty()) << lint::render_json_report(report);
  ASSERT_EQ(report.suppressions.size(), 1u);
  EXPECT_EQ(report.suppressions[0].rule, lint::Rule::kLockDiscipline);
  EXPECT_EQ(report.suppressions[0].line, 5u);
}

TEST(TreeBaseline, PhaseTwoFindingsRoundTripThroughABaseline) {
  const std::vector<std::string> set = {"error_discipline/src/result.h",
                                        "error_discipline/src/bad_error_discipline.cc"};
  auto accepted = lint_fixture_tree(set);
  ASSERT_FALSE(accepted.findings.empty());
  auto baseline = lint::parse_baseline(lint::serialize_baseline(accepted.findings), nullptr);
  const auto fresh = lint::apply_baseline(lint_fixture_tree(set).findings, std::move(baseline));
  EXPECT_TRUE(fresh.empty());
}

TEST(TreeReportJson, RoundTripsThroughObsParseJson) {
  const auto report = lint_fixture_tree({"view_lifetime/src/bad_view_lifetime.cc",
                                         "lock_discipline/src/bad_lock_discipline.cc"});
  ASSERT_FALSE(report.findings.empty());

  std::string error;
  const auto doc = obs::parse_json(lint::render_json_report(report), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->is_object());

  const obs::JsonValue* schema = doc->find("storsim_lint");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->number, 1.0);
  const obs::JsonValue* files = doc->find("files");
  ASSERT_NE(files, nullptr);
  EXPECT_EQ(files->number, static_cast<double>(report.file_count));
  const obs::JsonValue* finding_count = doc->find("finding_count");
  ASSERT_NE(finding_count, nullptr);
  EXPECT_EQ(finding_count->number, static_cast<double>(report.findings.size()));

  const obs::JsonValue* findings = doc->find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_TRUE(findings->type == obs::JsonValue::Type::kArray);
  ASSERT_EQ(findings->array.size(), report.findings.size());
  const obs::JsonValue& first = findings->array.front();
  ASSERT_TRUE(first.is_object());
  for (const char* key : {"path", "rule", "message", "excerpt"}) {
    const obs::JsonValue* v = first.find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_TRUE(v->is_string()) << key;
  }
  const obs::JsonValue* line = first.find("line");
  ASSERT_NE(line, nullptr);
  EXPECT_TRUE(line->is_number());

  const obs::JsonValue* sups = doc->find("suppressions");
  ASSERT_NE(sups, nullptr);
  EXPECT_TRUE(sups->type == obs::JsonValue::Type::kArray);
}

TEST(TreeReportJson, ExcerptsWithQuotesAndBackslashesSurviveTheRoundTrip) {
  const std::string snippet =
      "#include <cstdlib>\n"
      "const char* e = std::getenv(\"A\\\\ \\\"B\\\"\");\n";
  const auto report = lint::lint_tree_memory({{"src/core/env_probe.cc", snippet}});
  ASSERT_EQ(report.findings.size(), 1u);

  std::string error;
  const auto doc = obs::parse_json(lint::render_json_report(report), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const obs::JsonValue* findings = doc->find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->array.size(), 1u);
  const obs::JsonValue* excerpt = findings->array[0].find("excerpt");
  ASSERT_NE(excerpt, nullptr);
  EXPECT_EQ(excerpt->string, report.findings[0].excerpt);
  const obs::JsonValue* message = findings->array[0].find("message");
  ASSERT_NE(message, nullptr);
  EXPECT_EQ(message->string, report.findings[0].message);
}

TEST(TreeEngine, ReportIsIdenticalAtAnyThreadCount) {
  // Phase 1 fans the files out over util::parallel_for; the merged report is
  // contractually identical at any thread count. Compare the fully rendered
  // reports (ordering included) between a serial and a 4-worker run.
  const lint::LintOptions options;
  std::vector<std::string> errors;
  const auto sources = lint::collect_sources({std::string(STORSUBSIM_LINT_FIXTURES)},
                                             STORSUBSIM_TESTS_DIR, options, &errors);
  ASSERT_TRUE(errors.empty());
  ASSERT_FALSE(sources.empty());

  storsubsim::util::set_thread_count(1);
  const auto serial = lint::lint_tree(sources, options, &errors);
  ASSERT_TRUE(errors.empty());
  storsubsim::util::set_thread_count(4);
  const auto threaded = lint::lint_tree(sources, options, &errors);
  storsubsim::util::set_thread_count(0);  // restore the default resolution
  ASSERT_TRUE(errors.empty());

  ASSERT_FALSE(serial.findings.empty());
  EXPECT_EQ(serial.file_count, threaded.file_count);
  EXPECT_EQ(lint::render_json_report(serial), lint::render_json_report(threaded));
}

TEST(CollectSources, FilterChangedKeepsOnlyListedDisplayPaths) {
  std::vector<lint::SourceFile> sources = {{"src/a.cc", "/tmp/a.cc"},
                                           {"src/b.cc", "/tmp/b.cc"},
                                           {"tests/c.cc", "/tmp/c.cc"}};
  const auto kept = lint::filter_changed(std::move(sources), {"src/b.cc", "docs/readme.md"});
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].display_path, "src/b.cc");
  EXPECT_TRUE(lint::filter_changed({{"src/a.cc", "/tmp/a.cc"}}, {}).empty());
}

// --- CLI: JSON output and diff scoping ---------------------------------------

TEST(Cli, FormatJsonEmitsOneParsableObject) {
  std::string out;
  const int rc = run_cli_capture("--check --format=json --root " +
                                     std::string(STORSUBSIM_TESTS_DIR) + " " +
                                     fixture_path("lock_discipline"),
                                 &out);
  EXPECT_EQ(rc, 1);
  std::string error;
  const auto doc = obs::parse_json(out, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << out;
  const obs::JsonValue* count = doc->find("finding_count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->number, 3.0);
}

TEST(Cli, FormatJsonOnCleanInputExitsZero) {
  std::string out;
  const int rc = run_cli_capture(
      "--check --format=json --root " + std::string(STORSUBSIM_TESTS_DIR) + " " +
          fixture_path("lock_discipline/src/clean_lock_discipline.cc"),
      &out);
  EXPECT_EQ(rc, 0);
  const auto doc = obs::parse_json(out, nullptr);
  ASSERT_TRUE(doc.has_value()) << out;
  const obs::JsonValue* count = doc->find("finding_count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->number, 0.0);
}

TEST(Cli, UnknownFormatExitsTwo) {
  EXPECT_EQ(run_cli("--check --format=yaml " +
                    fixture_path("lock_discipline/src/clean_lock_discipline.cc")),
            2);
}

TEST(Cli, ChangedOnlyScopesViaGitWithoutUsageErrors) {
  // The build tree lives inside the repo, so the git plumbing must resolve;
  // the finding set depends on the working-tree state, so only the exit-code
  // contract (0 clean / 1 findings, never a usage error) is pinned here.
  // filter_changed itself is covered in-process above.
  const int rc = run_cli("--check --changed-only=HEAD --root " +
                         std::string(STORSUBSIM_TESTS_DIR) + " " +
                         fixture_path("lock_discipline"));
  EXPECT_TRUE(rc == 0 || rc == 1) << "exit code " << rc;
}

}  // namespace
