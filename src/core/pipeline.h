// End-to-end dataset construction: simulate -> emit text logs -> parse ->
// classify -> join with the parsed snapshot. This mirrors how the paper's
// data flowed (AutoSupport logs in, analysis out) and exercises every
// substrate, so the benches and examples default to it. The in-memory
// fast path (no text round-trip) is available for interactive use, and
// `dataset_from_text` reads log and snapshot text that already exists (the
// CLI's mapped files) through the same parse -> classify step.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset.h"
#include "log/parser.h"
#include "model/fleet_config.h"
#include "sim/params.h"
#include "sim/simulator.h"

namespace storsubsim::core {

/// Wall time each pipeline stage spent, in seconds. Observability only —
/// stage times are outputs, never inputs, so the dataset stays bit-identical
/// regardless of timer behavior. In the sharded pipeline emit/parse/classify
/// and snapshot are summed across shards (CPU-seconds, not wall span).
struct StageSeconds {
  double simulate = 0.0;
  double emit = 0.0;
  double parse = 0.0;
  double classify = 0.0;
  double sort = 0.0;      ///< global merge sort of shard outputs
  double snapshot = 0.0;  ///< config-snapshot chunk write + parse + placement
};

struct PipelineStats {
  std::size_t log_lines_written = 0;
  std::size_t log_lines_parsed = 0;
  std::size_t raid_records = 0;
  std::size_t failures_classified = 0;
  std::size_t duplicates_dropped = 0;    ///< classifier de-dup window hits
  std::size_t missing_disk_dropped = 0;  ///< RAID records without a disk id
  StageSeconds stage_seconds;
};

/// Builds a Dataset from an already-run simulation via the text-log
/// round-trip (emit -> parse -> classify, then write -> parse snapshot ->
/// join), one shard per worker.
Dataset dataset_via_logs(const model::Fleet& fleet, const sim::SimResult& result,
                         PipelineStats* stats = nullptr);

/// A dataset read from failure-log and config-snapshot text.
struct TextDataset {
  std::optional<Dataset> dataset;  ///< empty when the snapshot did not parse
  std::string error;               ///< the snapshot's parse error, if any
  log::ParseStats parse;           ///< line counts of the log text
  PipelineStats pipeline;          ///< log_lines_written counts the text's lines
};

/// Parses + classifies `log_text` and parses `snapshot_text` as the two items
/// of one parallel_for (inline at one thread; the outputs are disjoint, so
/// the result never depends on scheduling). A bad snapshot is reported in
/// `error`, not thrown. If `records` is non-null it receives the parsed log
/// records, which alias `log_text`.
TextDataset dataset_from_text(std::string_view log_text, std::string_view snapshot_text,
                              std::vector<log::LogView>* records = nullptr);

/// Builds a Dataset directly from simulator output (no text round-trip).
Dataset dataset_in_memory(const model::Fleet& fleet, const sim::SimResult& result);

/// One-call convenience: build fleet, simulate, and return the dataset via
/// the text-log path.
struct SimulationDataset {
  Dataset dataset;
  sim::SimCounters counters;
  PipelineStats pipeline;
};

SimulationDataset simulate_and_analyze(const model::FleetConfig& config,
                                       const sim::SimParams& params = sim::SimParams::standard(),
                                       bool through_text_logs = true);

}  // namespace storsubsim::core
