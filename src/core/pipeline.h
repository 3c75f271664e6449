// End-to-end dataset construction: simulate -> emit text logs -> parse ->
// classify -> join with the parsed snapshot. This mirrors how the paper's
// data flowed (AutoSupport logs in, analysis out) and exercises every
// substrate, so the benches and examples default to it. The in-memory
// fast path (no text round-trip) is available for interactive use, and
// `dataset_from_text` reads log and snapshot text that already exists (the
// CLI's mapped files) through the same parse -> classify step.
//
// Parallelism: `simulate_and_analyze` cuts the fleet into contiguous global
// system ranges ("chunks"), one per worker, and runs each chunk whole on
// one worker — fleet build, simulation and text round trip (`run_chunk`,
// the same runner the sharded store build uses). `stitch_chunks` then
// rebases the chunk-local ids into the one Dataset the whole fleet gives.
// Chunk fleets are positioned by RNG fork replay and simulated with
// substreams keyed by global indices, so the result is bit-identical for
// any chunk count and thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset.h"
#include "log/parser.h"
#include "model/fleet.h"
#include "model/fleet_config.h"
#include "sim/params.h"
#include "sim/simulator.h"

namespace storsubsim::core {

/// Time each pipeline stage spent, in seconds. Observability only — stage
/// times are outputs, never inputs, so the dataset stays bit-identical
/// regardless of timer behavior. simulate/emit/parse/classify/snapshot are
/// summed across chunks (CPU-seconds, not wall span).
struct StageSeconds {
  double simulate = 0.0;  ///< chunk fleet build + simulation
  double emit = 0.0;
  double parse = 0.0;
  double classify = 0.0;
  double sort = 0.0;      ///< stitch of the chunk outputs (wall, calling thread)
  double snapshot = 0.0;  ///< config-snapshot write + parse
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
/// round-trip, serially on the calling thread: emit -> parse -> classify,
/// then write -> parse the config snapshot, and join. Throws if the
/// snapshot does not parse back.
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

/// Chunk boundaries in global system indices: `chunks + 1` cut points,
/// strictly increasing, chosen so each chunk carries roughly the same
/// number of *initial* disks, using the plan's cumulative disk counts.
/// Requires 1 <= chunks <= plan.system_count().
std::vector<std::size_t> chunk_bounds(const model::FleetPlan& plan, std::size_t chunks);

/// A simulated fleet's dataset, with the simulator's and the pipeline's
/// counters.
struct SimulationDataset {
  Dataset dataset;
  sim::SimCounters counters;
  PipelineStats pipeline;
};

/// One chunk's run, in chunk-local dense ids (entry i of each inventory
/// vector has id i; disks [0, disks_initial) are the chunk's initial disks,
/// the rest its replacements).
struct ChunkRun {
  SimulationDataset run;
  std::size_t disks_initial = 0;
};

/// The chunk runner: builds global systems [sys_begin, sys_end) as a chunk
/// fleet (model::Fleet::build_chunk), simulates it with RNG substreams keyed
/// by global indices (`shelf_base` = global index of the chunk's first
/// shelf), and turns it into a dataset through dataset_via_logs, or
/// dataset_in_memory when `through_text_logs` is false. Serial except for
/// the simulator's own fan-out, which runs inline on a pool worker.
ChunkRun run_chunk(const model::FleetConfig& config, const sim::SimParams& params,
                   std::size_t sys_begin, std::size_t sys_end, std::uint64_t shelf_base,
                   bool through_text_logs);

/// One chunk of a fleet for stitch_chunks: its inventory and events in
/// chunk-local ids, and its count of initial disk records.
struct DatasetChunk {
  const log::Inventory* inventory = nullptr;
  std::span<const FailureEvent> events;
  std::size_t disks_initial = 0;
};

/// Stitches chunks, given in global system order, into the one Dataset of
/// the whole fleet. Each chunk's ids are rebased by the preceding chunks'
/// counts: systems, shelves and RAID groups chunk-major; disks as every
/// chunk's initial block in chunk order, then every chunk's replacement
/// block in chunk order (the whole fleet's order, docs/STORE.md). Events
/// are then sorted into the classifier's (time, disk, type) order, so the
/// result is bit-identical to the whole fleet's.
Dataset stitch_chunks(std::span<const DatasetChunk> chunks, double horizon_seconds);

/// One-call convenience: build, simulate and analyze the fleet, through
/// the text logs by default. Runs one chunk per worker (the thread count,
/// capped at the system count) on the pool and stitches them; one chunk
/// skips the plan pass and the stitch. Bit-identical for any thread count.
SimulationDataset simulate_and_analyze(const model::FleetConfig& config,
                                       const sim::SimParams& params = sim::SimParams::standard(),
                                       bool through_text_logs = true);

}  // namespace storsubsim::core
