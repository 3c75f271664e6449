#include "core/pipeline.h"

#include <algorithm>
#include <memory>
#include <optional>
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

/// Rough bytes-per-failure for pre-sizing the log buffer: chains are 3-6
/// lines of ~60-190 characters (see log/emitter.cc tables).
constexpr std::size_t kLogBytesPerFailure = 768;

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

/// Adds one chunk's counts and stage seconds to `into`.
void accumulate(PipelineStats& into, const PipelineStats& chunk) {
  into.log_lines_written += chunk.log_lines_written;
  into.log_lines_parsed += chunk.log_lines_parsed;
  into.raid_records += chunk.raid_records;
  into.failures_classified += chunk.failures_classified;
  into.duplicates_dropped += chunk.duplicates_dropped;
  into.missing_disk_dropped += chunk.missing_disk_dropped;
  into.stage_seconds.simulate += chunk.stage_seconds.simulate;
  into.stage_seconds.emit += chunk.stage_seconds.emit;
  into.stage_seconds.parse += chunk.stage_seconds.parse;
  into.stage_seconds.classify += chunk.stage_seconds.classify;
  into.stage_seconds.snapshot += chunk.stage_seconds.snapshot;
}

}  // namespace

Dataset dataset_via_logs(const model::Fleet& fleet, const sim::SimResult& result,
                         PipelineStats* stats) {
  // The emitter, parser and classifier are stateless across records except
  // for the classifier's (disk, type) de-duplication window, and a disk
  // lives in exactly one system, so a chunk of systems round-trips alone.
  // The parsed views alias `log_text`, which outlives classification.
  PipelineStats local;
  std::vector<log::ClassifiedFailure> classified;
  {
    obs::Span span("pipeline.emit");
    log::LineWriter log_text(result.failures.size() * kLogBytesPerFailure);
    local.log_lines_written = sim::write_failure_logs(log_text, fleet, result.failures);
    local.stage_seconds.emit = span.stop();
    std::vector<log::LogView> records;
    parse_and_classify(log_text.view(), records, classified, local);
  }

  obs::Span span("pipeline.snapshot");
  log::LineWriter snapshot_text;
  log::write_snapshot(snapshot_text, fleet);
  const log::SnapshotCounts counts{static_cast<std::uint32_t>(fleet.systems().size()),
                                   static_cast<std::uint32_t>(fleet.shelves().size()),
                                   static_cast<std::uint32_t>(fleet.raid_groups().size()),
                                   static_cast<std::uint32_t>(fleet.disks().size())};
  log::SnapshotParseResult snapshot = log::parse_snapshot(snapshot_text.view(), counts);
  if (!snapshot.ok()) {
    throw std::runtime_error(
        std::string("pipeline: snapshot round-trip failed: ").append(snapshot.error));
  }
  local.stage_seconds.snapshot = span.stop();

  if (stats != nullptr) *stats = local;
  return Dataset(std::make_shared<log::Inventory>(std::move(snapshot.inventory)),
                 std::move(classified));
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

std::vector<std::size_t> chunk_bounds(const model::FleetPlan& plan, std::size_t chunks) {
  const std::size_t n_systems = plan.system_count();
  const std::uint64_t total_disks = plan.disks.back();
  std::vector<std::size_t> bounds(chunks + 1, 0);
  bounds[chunks] = n_systems;
  for (std::size_t s = 1; s < chunks; ++s) {
    const std::uint64_t target = total_disks * s / chunks;
    const auto it = std::lower_bound(plan.disks.begin(), plan.disks.end(), target);
    bounds[s] = static_cast<std::size_t>(it - plan.disks.begin());
  }
  // Enforce strict monotonicity (possible ties when systems are huge or
  // chunks ~ systems): every chunk must own at least one system.
  for (std::size_t s = 1; s < chunks; ++s) {
    bounds[s] = std::max(bounds[s], bounds[s - 1] + 1);
  }
  for (std::size_t s = chunks; s-- > 1;) {
    bounds[s] = std::min(bounds[s], bounds[s + 1] - 1);
  }
  return bounds;
}

ChunkRun run_chunk(const model::FleetConfig& config, const sim::SimParams& params,
                   std::size_t sys_begin, std::size_t sys_end, std::uint64_t shelf_base,
                   bool through_text_logs) {
  obs::Span span("pipeline.simulate");
  model::Fleet fleet = model::Fleet::build_chunk(config, sys_begin, sys_end);
  sim::SimIndexBases bases;
  bases.system = sys_begin;
  bases.shelf = shelf_base;
  sim::Simulator simulator(fleet, params, bases);
  const sim::SimResult result = simulator.run();
  const double simulate_seconds = span.stop();

  PipelineStats pipeline;
  Dataset dataset = through_text_logs ? dataset_via_logs(fleet, result, &pipeline)
                                      : dataset_in_memory(fleet, result);
  pipeline.stage_seconds.simulate = simulate_seconds;
  return ChunkRun{SimulationDataset{std::move(dataset), result.counters, pipeline},
                  fleet.initial_disk_count()};
}

Dataset stitch_chunks(std::span<const DatasetChunk> chunks, double horizon_seconds) {
  // Global id of each chunk's first record of each kind: prefix sums. A
  // chunk's replacement disks follow every chunk's initial disks.
  struct Bases {
    std::uint32_t system = 0;
    std::uint32_t shelf = 0;
    std::uint32_t raid_group = 0;
    std::uint32_t disk = 0;         ///< the chunk's first initial disk
    std::uint32_t replacement = 0;  ///< the chunk's first replacement disk
    std::size_t event = 0;          ///< the chunk's first event slot
  };
  std::vector<Bases> bases(chunks.size() + 1);
  std::uint32_t disks_initial = 0;
  for (const DatasetChunk& chunk : chunks) {
    disks_initial += static_cast<std::uint32_t>(chunk.disks_initial);
  }
  bases[0].replacement = disks_initial;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const log::Inventory& local = *chunks[c].inventory;
    const auto initial = static_cast<std::uint32_t>(chunks[c].disks_initial);
    bases[c + 1] = bases[c];
    bases[c + 1].system += static_cast<std::uint32_t>(local.systems.size());
    bases[c + 1].shelf += static_cast<std::uint32_t>(local.shelves.size());
    bases[c + 1].raid_group += static_cast<std::uint32_t>(local.raid_groups.size());
    bases[c + 1].disk += initial;
    bases[c + 1].replacement += static_cast<std::uint32_t>(local.disks.size()) - initial;
    bases[c + 1].event += chunks[c].events.size();
  }
  const Bases& total = bases.back();

  // Every record lands at its global id (entry i of each local vector has
  // local id i), so the chunks fill disjoint slots in parallel.
  log::Inventory inv;
  inv.horizon_seconds = horizon_seconds;
  inv.systems.resize(total.system);
  inv.shelves.resize(total.shelf);
  inv.raid_groups.resize(total.raid_group);
  inv.disks.resize(total.replacement);
  std::vector<FailureEvent> events(total.event);
  util::parallel_for(chunks.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      const Bases& at = bases[c];
      const log::Inventory& local = *chunks[c].inventory;
      const auto initial = static_cast<std::uint32_t>(chunks[c].disks_initial);
      auto system = [&](model::SystemId id) { return model::SystemId(at.system + id.value()); };
      auto disk = [&](model::DiskId id) {
        return model::DiskId(id.value() < initial ? at.disk + id.value()
                                                  : at.replacement + (id.value() - initial));
      };
      for (log::InventorySystem s : local.systems) {
        s.id = system(s.id);
        inv.systems[s.id.value()] = s;
      }
      for (log::InventoryShelf sh : local.shelves) {
        sh.id = model::ShelfId(at.shelf + sh.id.value());
        sh.system = system(sh.system);
        inv.shelves[sh.id.value()] = sh;
      }
      for (log::InventoryRaidGroup g : local.raid_groups) {
        g.id = model::RaidGroupId(at.raid_group + g.id.value());
        g.system = system(g.system);
        inv.raid_groups[g.id.value()] = g;
      }
      for (log::InventoryDisk d : local.disks) {
        d.id = disk(d.id);
        d.system = system(d.system);
        d.shelf = model::ShelfId(at.shelf + d.shelf.value());
        if (d.raid_group.valid()) {
          d.raid_group = model::RaidGroupId(at.raid_group + d.raid_group.value());
        }
        inv.disks[d.id.value()] = d;
      }
      std::size_t slot = at.event;
      for (FailureEvent e : chunks[c].events) {
        e.disk = disk(e.disk);
        e.system = system(e.system);
        events[slot++] = e;
      }
    }
  });

  // The classifier's order; global ids make the key the whole fleet's.
  obs::Span sort_span("pipeline.sort");
  std::sort(events.begin(), events.end(), [](const FailureEvent& a, const FailureEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.disk != b.disk) return a.disk < b.disk;
    return static_cast<int>(a.type) < static_cast<int>(b.type);
  });
  sort_span.stop();
  return Dataset(std::make_shared<log::Inventory>(std::move(inv)), std::move(events));
}

SimulationDataset simulate_and_analyze(const model::FleetConfig& config,
                                       const sim::SimParams& params, bool through_text_logs) {
  // One chunk per worker: each runs whole on one worker, so the chunk count
  // is the parallelism. The plan's cumulative counts cut the chunks and
  // place each chunk's shelves; one chunk is the whole fleet and needs none.
  const std::size_t n_systems = config.total_systems();
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min<std::size_t>(util::thread_count(), n_systems));
  STORSIM_OBS_COUNTER(c_chunks, "pipeline.chunks",
                      ::storsubsim::obs::Stability::kSchedulingDependent);
  STORSIM_OBS_ADD(c_chunks, chunks);
  std::vector<std::size_t> bounds{0, n_systems};
  std::vector<std::uint64_t> shelf_bases(chunks, 0);
  if (chunks > 1) {
    obs::Span span("pipeline.plan");
    const model::FleetPlan plan = model::Fleet::plan(config);
    bounds = chunk_bounds(plan, chunks);
    for (std::size_t c = 0; c < chunks; ++c) shelf_bases[c] = plan.shelves[bounds[c]];
  }

  std::vector<std::optional<ChunkRun>> runs(chunks);
  util::parallel_for(chunks, [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      obs::Span span("pipeline.chunk");
      runs[c] = run_chunk(config, params, bounds[c], bounds[c + 1], shelf_bases[c],
                          through_text_logs);
    }
  });
  if (chunks == 1) return std::move(runs[0]->run);

  obs::Span span("pipeline.stitch");
  sim::SimCounters counters;
  PipelineStats pipeline;
  std::vector<DatasetChunk> pieces;
  pieces.reserve(chunks);
  for (const std::optional<ChunkRun>& chunk : runs) {
    counters += chunk->run.counters;
    accumulate(pipeline, chunk->run.pipeline);
    pieces.push_back(DatasetChunk{&chunk->run.dataset.inventory(),
                                  chunk->run.dataset.events(), chunk->disks_initial});
  }
  // The chunks' inventories carry the horizon as the snapshot round trip
  // left it.
  Dataset dataset = stitch_chunks(pieces, pieces[0].inventory->horizon_seconds);
  pipeline.stage_seconds.sort = span.stop();
  return SimulationDataset{std::move(dataset), counters, pipeline};
}

}  // namespace storsubsim::core
