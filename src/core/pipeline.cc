#include "core/pipeline.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "log/classifier.h"
#include "log/line_writer.h"
#include "log/parser.h"
#include "log/snapshot.h"
#include "obs/obs.h"
#include "sim/log_bridge.h"
#include "util/parallel.h"

namespace storsubsim::core {

namespace {

/// Rough bytes-per-failure for pre-sizing a shard's log buffer: chains are
/// 3-6 lines of ~60-190 characters (see log/emitter.cc tables).
constexpr std::size_t kLogBytesPerFailure = 768;

/// A failure's emit -> parse -> classify costs about as much time as writing
/// and parsing this many config-snapshot bytes (the standard fleet at scale
/// 0.25: ~640 log bytes per failure, each a little cheaper than a snapshot
/// byte). Used only to cut the snapshot chunks.
constexpr std::size_t kSnapshotBytesPerFailure = 560;

/// Sizing the final inventory touches every page of it; per disk record
/// that costs about as much as this many snapshot bytes.
constexpr std::size_t kSnapshotBytesPerSizedDisk = 6;

/// parse_text -> classify over one log text, under the pipeline.parse and
/// pipeline.classify spans: fills the parse and classify counts and seconds
/// of `stats`. `records` receives the parsed views, which alias `text`.
log::ParseStats parse_and_classify(std::string_view text, std::vector<log::LogView>& records,
                                   std::vector<log::ClassifiedFailure>& failures,
                                   PipelineStats& stats) {
  obs::Span parse_span("pipeline.parse");
  const log::ParseStats parse_stats = log::parse_text(text, records);
  stats.log_lines_parsed = parse_stats.lines_parsed;
  stats.stage_seconds.parse = parse_span.stop();

  obs::Span classify_span("pipeline.classify");
  log::ClassifierStats classifier_stats;
  failures = log::classify(records, log::ClassifierOptions{}, &classifier_stats);
  stats.raid_records = classifier_stats.raid_records;
  stats.duplicates_dropped = classifier_stats.duplicates_dropped;
  stats.missing_disk_dropped = classifier_stats.missing_disk_dropped;
  stats.failures_classified = failures.size();
  stats.stage_seconds.classify = classify_span.stop();

  STORSIM_OBS_COUNTER(c_classified, "pipeline.failures_classified",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_classified, stats.failures_classified);
  return parse_stats;
}

/// One shard's emit -> parse -> classify round-trip. The emitter, parser and
/// classifier are stateless across records except for the classifier's
/// (disk, type) de-duplication window — and a disk lives in exactly one
/// system, so sharding by system keeps every dedup decision within a shard.
///
/// The whole trip happens in one retained text buffer: the emitter appends
/// rendered lines to it, the parser walks it yielding views that alias it,
/// and the classifier consumes the views — the buffer outlives all of them
/// (it dies when this function returns, after classification).
struct ShardOutput {
  std::vector<log::ClassifiedFailure> failures;
  PipelineStats stats;
  log::SnapshotParseResult snapshot;  ///< this shard's snapshot chunk, parsed
};

ShardOutput roundtrip_shard(const model::Fleet& fleet,
                            std::span<const sim::SimFailure> failures) {
  ShardOutput out;
  obs::Span span("pipeline.emit");
  log::LineWriter log_text(failures.size() * kLogBytesPerFailure);
  out.stats.log_lines_written = sim::write_failure_logs(log_text, fleet, failures);
  out.stats.stage_seconds.emit = span.stop();

  std::vector<log::LogView> records;
  parse_and_classify(log_text.view(), records, out.failures, out.stats);
  return out;
}

/// One snapshot chunk's write -> parse round trip, in its own text buffer.
log::SnapshotParseResult roundtrip_snapshot_chunk(const model::Fleet& fleet,
                                                  const log::SnapshotChunk& chunk) {
  log::LineWriter text(chunk.bytes + chunk.bytes / 4);
  log::write_snapshot_range(text, fleet, chunk.first, chunk.last);
  log::SnapshotParseResult parsed = log::parse_snapshot_chunk(text.view(), chunk);
  if (!parsed.ok()) {
    throw std::runtime_error(
        std::string("pipeline: snapshot round-trip failed: ").append(parsed.error));
  }
  return parsed;
}

template <typename T>
void place_slice(const std::vector<T>& slice, std::uint32_t base, std::uint32_t count,
                 std::vector<T>& into) {
  if (slice.size() != count) {
    throw std::runtime_error("pipeline: snapshot chunk holds the wrong records");
  }
  std::copy(slice.begin(), slice.end(), into.begin() + base);
}

/// Copies a parsed chunk to its final offsets in `inv` and frees the chunk's
/// own copy. Chunks own disjoint slices, and only the chunk that held the
/// header writes the horizon.
void place_snapshot_chunk(const log::SnapshotChunk& chunk, log::SnapshotParseResult& parsed,
                          log::Inventory& inv) {
  log::Inventory& slice = parsed.inventory;
  place_slice(slice.systems, chunk.bases.systems, chunk.counts.systems, inv.systems);
  place_slice(slice.shelves, chunk.bases.shelves, chunk.counts.shelves, inv.shelves);
  place_slice(slice.raid_groups, chunk.bases.raid_groups, chunk.counts.raid_groups,
              inv.raid_groups);
  place_slice(slice.disks, chunk.bases.disks, chunk.counts.disks, inv.disks);
  if (parsed.saw_header) inv.horizon_seconds = slice.horizon_seconds;
  slice = log::Inventory{};
}

void accumulate(PipelineStats& into, const PipelineStats& shard) {
  into.log_lines_written += shard.log_lines_written;
  into.log_lines_parsed += shard.log_lines_parsed;
  into.raid_records += shard.raid_records;
  into.failures_classified += shard.failures_classified;
  into.duplicates_dropped += shard.duplicates_dropped;
  into.missing_disk_dropped += shard.missing_disk_dropped;
  into.stage_seconds.emit += shard.stage_seconds.emit;
  into.stage_seconds.parse += shard.stage_seconds.parse;
  into.stage_seconds.classify += shard.stage_seconds.classify;
  into.stage_seconds.snapshot += shard.stage_seconds.snapshot;
}

}  // namespace

Dataset dataset_via_logs(const model::Fleet& fleet, const sim::SimResult& result,
                         PipelineStats* stats) {
  const std::size_t n_systems = fleet.systems().size();
  std::size_t shards = std::min<std::size_t>(util::thread_count(),
                                             n_systems == 0 ? 1 : n_systems);
  if (result.failures.size() < 2048) shards = 1;  // not worth the fan-out
  STORSIM_OBS_COUNTER(c_shards, "pipeline.shards",
                      ::storsubsim::obs::Stability::kSchedulingDependent);
  STORSIM_OBS_ADD(c_shards, shards);

  // Partition failures by contiguous system ranges (shard s owns systems
  // [s*n/S, (s+1)*n/S)), preserving detection order within each bucket.
  std::vector<std::vector<sim::SimFailure>> buckets;
  if (shards > 1) {
    std::vector<std::uint32_t> shard_of_system(n_systems);
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t begin = n_systems * s / shards;
      const std::size_t end = n_systems * (s + 1) / shards;
      for (std::size_t sys = begin; sys < end; ++sys) {
        shard_of_system[sys] = static_cast<std::uint32_t>(s);
      }
    }
    buckets.resize(shards);
    for (auto& b : buckets) b.reserve(result.failures.size() / shards + 1);
    for (const auto& f : result.failures) {
      buckets[shard_of_system[f.system.value()]].push_back(f);
    }
  }
  auto failures_of = [&](std::size_t s) {
    return shards == 1 ? std::span<const sim::SimFailure>(result.failures)
                       : std::span<const sim::SimFailure>(buckets[s]);
  };

  // The config snapshot rides the same fan-out: shard s round-trips snapshot
  // chunk s after its logs. The cut levels each shard's estimated other work
  // plus its chunk's bytes.
  std::vector<std::size_t> busy(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    busy[s] = failures_of(s).size() * kSnapshotBytesPerFailure;
  }
  busy[0] += fleet.disks().size() * kSnapshotBytesPerSizedDisk;
  const std::vector<log::SnapshotChunk> chunks = log::plan_snapshot_chunks(fleet, busy);

  auto inventory = std::make_shared<log::Inventory>();
  std::vector<ShardOutput> outputs(shards);
  util::parallel_for(shards, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      // Shard 0 also sizes the final inventory, off the serial path: its
      // first touch of every page is the dominant cost.
      if (s == 0) {
        inventory->systems.resize(fleet.systems().size());
        inventory->shelves.resize(fleet.shelves().size());
        inventory->raid_groups.resize(fleet.raid_groups().size());
        inventory->disks.resize(fleet.disks().size());
      }
      outputs[s] = roundtrip_shard(fleet, failures_of(s));
      obs::Span span("pipeline.snapshot");
      outputs[s].snapshot = roundtrip_snapshot_chunk(fleet, chunks[s]);
      outputs[s].stats.stage_seconds.snapshot = span.stop();
    }
  });
  // Every parsed chunk to its final offsets, on the same workers.
  util::parallel_for(shards, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      obs::Span span("pipeline.snapshot");
      place_snapshot_chunk(chunks[s], outputs[s].snapshot, *inventory);
      outputs[s].stats.stage_seconds.snapshot += span.stop();
    }
  });

  // parse_snapshot's whole-section checks, over the assembled chunks.
  bool saw_header = false;
  bool saw_end = false;
  for (const ShardOutput& out : outputs) {
    saw_header = saw_header || out.snapshot.saw_header;
    saw_end = saw_end || out.snapshot.saw_end;
  }
  const std::string snapshot_error = log::check_snapshot(*inventory, saw_header, saw_end);
  if (!snapshot_error.empty()) {
    throw std::runtime_error(
        std::string("pipeline: snapshot round-trip failed: ").append(snapshot_error));
  }

  PipelineStats local;
  std::vector<log::ClassifiedFailure> classified;
  if (shards == 1) {
    classified = std::move(outputs[0].failures);
    local = outputs[0].stats;
  } else {
    std::size_t total = 0;
    for (const auto& out : outputs) total += out.failures.size();
    classified.reserve(total);
    for (auto& out : outputs) {
      classified.insert(classified.end(), out.failures.begin(), out.failures.end());
      accumulate(local, out.stats);
    }
    // Restore the classifier's global output order (time, disk, type) so the
    // sharded pipeline is bit-identical to the serial one.
    obs::Span sort_span("pipeline.sort");
    std::sort(classified.begin(), classified.end(),
              [](const log::ClassifiedFailure& a, const log::ClassifiedFailure& b) {
                if (a.time != b.time) return a.time < b.time;
                if (a.disk != b.disk) return a.disk < b.disk;
                return static_cast<int>(a.type) < static_cast<int>(b.type);
              });
    local.stage_seconds.sort = sort_span.stop();
  }

  if (stats != nullptr) *stats = local;
  return Dataset(std::move(inventory), std::move(classified));
}

TextDataset dataset_from_text(std::string_view log_text, std::string_view snapshot_text,
                              std::vector<log::LogView>* records) {
  TextDataset out;
  std::vector<log::LogView> views;
  std::vector<log::ClassifiedFailure> failures;
  log::SnapshotParseResult snapshot;
  // Item 1, the longer snapshot parse, is the one the calling thread runs.
  util::parallel_for(2, [&](std::size_t begin, std::size_t end) {
    for (std::size_t item = begin; item < end; ++item) {
      if (item == 0) {
        out.parse = parse_and_classify(log_text, views, failures, out.pipeline);
      } else {
        obs::Span span("pipeline.snapshot");
        snapshot = log::parse_snapshot(snapshot_text);
        out.pipeline.stage_seconds.snapshot = span.stop();
      }
    }
  });
  out.pipeline.log_lines_written = out.parse.lines_total;
  if (!snapshot.ok()) {
    out.error = std::move(snapshot.error);
    return out;
  }
  out.dataset.emplace(std::make_shared<log::Inventory>(std::move(snapshot.inventory)),
                      std::move(failures));
  if (records != nullptr) *records = std::move(views);
  return out;
}

Dataset dataset_in_memory(const model::Fleet& fleet, const sim::SimResult& result) {
  std::vector<FailureEvent> events;
  events.reserve(result.failures.size());
  for (const auto& f : result.failures) {
    events.push_back(FailureEvent{f.detect_time, f.disk, f.system, f.type});
  }
  return Dataset(std::make_shared<log::Inventory>(log::inventory_from_fleet(fleet)),
                 std::move(events));
}

SimulationDataset simulate_and_analyze(const model::FleetConfig& config,
                                       const sim::SimParams& params, bool through_text_logs) {
  obs::Span sim_span("pipeline.simulate");
  sim::FleetSimulation simulation = sim::simulate_fleet(config, params);
  const double simulate_seconds = sim_span.stop();
  PipelineStats pipeline;
  Dataset dataset = through_text_logs
                        ? dataset_via_logs(simulation.fleet, simulation.result, &pipeline)
                        : dataset_in_memory(simulation.fleet, simulation.result);
  pipeline.stage_seconds.simulate = simulate_seconds;
  return SimulationDataset{std::move(dataset), simulation.result.counters, pipeline};
}

}  // namespace storsubsim::core
