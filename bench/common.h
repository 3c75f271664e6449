// Shared infrastructure for the experiment harnesses.
//
// Every bench binary reproduces one paper exhibit. Running a binary does two
// things: (1) google-benchmark timings of the pipeline stages involved, at a
// reduced fleet scale, and (2) a report that regenerates the exhibit's
// rows/series at the configured scale, printed next to the paper's reference
// values.
//
// Flags (ours are consumed before google-benchmark sees the rest):
//   --report-only          skip the timing benchmarks
//   --scale=<float>        fleet scale for the report (default 1.0 = the
//                          paper's full ~39k-system fleet)
//   --seed=<int>           simulation seed
//   --threads=<int>        worker threads for the simulator / log pipeline /
//                          bootstrap (default: STORSIM_THREADS env, else
//                          hardware concurrency; results are identical for
//                          any value — see docs/performance.md)
//   --store=<path>         read a prebuilt columnar store or shard directory
//                          (see docs/STORE.md) through core::Source instead
//                          of simulating; --scale/--seed are ignored for the
//                          report
//   --csv                  print tables as CSV instead of aligned text
//   --metrics              print the obs metric snapshot to stderr at exit
//   --trace=<path>         write a Chrome trace_event JSON of recorded spans
//   --manifest=<path>      write a run-manifest JSON (provenance + metrics);
//                          harnesses that take --out=X.json default this to
//                          X.manifest.json
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/afr.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "core/source.h"

namespace storsubsim::bench {

struct Options {
  double scale = 1.0;
  std::uint64_t seed = 20080226;
  unsigned threads = 0;  ///< 0 = auto (env var / hardware concurrency)
  std::string store;     ///< non-empty: mmap this store file, skip simulation
  bool run_benchmarks = true;
  bool csv = false;
  bool metrics = false;   ///< print the metric snapshot to stderr at exit
  std::string trace;      ///< non-empty: write the Chrome trace here
  std::string manifest;   ///< non-empty: write the run manifest here
};

/// Parses and strips our flags from argv (google-benchmark parses the rest).
/// Tracing is enabled immediately when --trace is present, so spans recorded
/// during the report are captured.
Options parse_options(int& argc, char** argv);

/// Writes the run artifacts the options ask for: the trace JSON, the run
/// manifest (provenance + named numbers + metric snapshot), and the --metrics
/// stderr dump. Call once at the end of main; `numbers` carries the harness's
/// headline measurements (wall times, speedups, ...).
void finish_run(const std::string& tool, const Options& options,
                const std::vector<std::pair<std::string, double>>& numbers = {});

/// The fleet a report reads — a Source over a simulated dataset or over an
/// opened --store (no Dataset built) — and the run's log-pipeline counters.
struct StandardRun {
  core::Source source;
  std::uint64_t log_lines_written = 0;
  std::uint64_t log_lines_parsed = 0;
  std::uint64_t failures_classified = 0;
};

/// Simulates the standard fleet and caches the result keyed on
/// (scale, seed); the text-log round-trip is included so the report measures
/// the same end-to-end path the paper's analysis took. The cache is a small
/// LRU (at most 2 runs) so seed/scale sweeps don't grow memory without
/// bound, and it is mutex-guarded for threaded benches. A returned reference
/// stays valid until two further calls with *different* keys evict it. With
/// --store, the run is the opened store, cached on its path.
const StandardRun& standard_run(const Options& options);

/// Prints the exhibit banner: what is being reproduced, fleet scale, and the
/// run's headline statistics.
void print_banner(std::ostream& out, const std::string& exhibit, const Options& options,
                  const StandardRun& run);

/// Renders a table honoring --csv.
void print_table(std::ostream& out, const core::TextTable& table, const Options& options);

/// Formats an AFR breakdown row: total + per-type percentages.
std::string afr_cell(const core::AfrBreakdown& b, model::FailureType type);

/// The scale google-benchmark timing loops use (kept small so the timing
/// section stays in milliseconds).
inline constexpr double kTimingScale = 0.02;

}  // namespace storsubsim::bench
