// Run manifests: a small JSON provenance record emitted by CLI runs, bench
// harnesses, and store builds — what ran (tool, git describe), with which
// knobs (seed, scale, threads), what it measured (named numbers), and the
// final metric snapshot. One file per run; the schema is validated by
// obs::parse_json in tests and tools/run_checks.sh.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace storsubsim::obs {

struct RunManifest {
  std::string tool;  ///< e.g. "storsubsim analyze", "bench/pipeline_throughput"
  std::uint64_t seed = 0;
  double scale = 0.0;
  std::size_t threads = 0;  ///< resolved worker count for the run

  /// Free-form string facts (input paths, report names, ...).
  std::vector<std::pair<std::string, std::string>> info;
  /// Named measurements (wall times, speedups, byte counts, ...).
  std::vector<std::pair<std::string, double>> numbers;
  /// Embed the registry snapshot under "metrics" (default on).
  bool include_metrics = true;
};

/// The `git describe --always --dirty` of the source tree at configure time
/// ("unknown" when git was unavailable).
std::string_view git_describe() noexcept;

/// Serializes the manifest (plus the current metric snapshot) as JSON.
std::string manifest_json(const RunManifest& manifest);

}  // namespace storsubsim::obs
