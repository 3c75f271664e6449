#include "core/store_bridge.h"

#include <vector>

namespace storsubsim::core {

store::StoreMeta make_store_meta(const sim::SimCounters& counters,
                                 const PipelineStats& pipeline) {
  store::StoreMeta meta;
  for (std::size_t i = 0; i < meta.sim_events_by_type.size(); ++i) {
    meta.sim_events_by_type[i] = counters.events_by_type[i];
  }
  meta.sim_replacements = counters.replacements;
  meta.sim_triggered_disk_failures = counters.triggered_disk_failures;
  meta.sim_shelf_faults = counters.shelf_faults;
  meta.sim_path_faults = counters.path_faults;
  meta.sim_masked_path_faults = counters.masked_path_faults;
  meta.log_lines_written = pipeline.log_lines_written;
  meta.log_lines_parsed = pipeline.log_lines_parsed;
  meta.raid_records = pipeline.raid_records;
  meta.failures_classified = pipeline.failures_classified;
  meta.duplicates_dropped = pipeline.duplicates_dropped;
  meta.missing_disk_dropped = pipeline.missing_disk_dropped;
  return meta;
}

sim::SimCounters sim_counters_from_meta(const store::StoreMeta& meta) {
  sim::SimCounters counters;
  for (std::size_t i = 0; i < counters.events_by_type.size(); ++i) {
    counters.events_by_type[i] = static_cast<std::size_t>(meta.sim_events_by_type[i]);
  }
  counters.replacements = static_cast<std::size_t>(meta.sim_replacements);
  counters.triggered_disk_failures =
      static_cast<std::size_t>(meta.sim_triggered_disk_failures);
  counters.shelf_faults = static_cast<std::size_t>(meta.sim_shelf_faults);
  counters.path_faults = static_cast<std::size_t>(meta.sim_path_faults);
  counters.masked_path_faults = static_cast<std::size_t>(meta.sim_masked_path_faults);
  return counters;
}

PipelineStats pipeline_stats_from_meta(const store::StoreMeta& meta) {
  PipelineStats stats;
  stats.log_lines_written = static_cast<std::size_t>(meta.log_lines_written);
  stats.log_lines_parsed = static_cast<std::size_t>(meta.log_lines_parsed);
  stats.raid_records = static_cast<std::size_t>(meta.raid_records);
  stats.failures_classified = static_cast<std::size_t>(meta.failures_classified);
  stats.duplicates_dropped = static_cast<std::size_t>(meta.duplicates_dropped);
  stats.missing_disk_dropped = static_cast<std::size_t>(meta.missing_disk_dropped);
  return stats;
}

store::Error write_store(const std::string& path, const SimulationDataset& run,
                         std::uint64_t seed, double scale) {
  store::StoreContents contents;
  contents.inventory = &run.dataset.inventory();
  contents.events = run.dataset.events();
  contents.meta = make_store_meta(run.counters, run.pipeline);
  contents.seed = seed;
  contents.scale = scale;
  return store::write_store_file(path, contents);
}

Dataset dataset_from_shards(const store::ShardStore& shards) {
  // Every shard's inventory and events in its local ids, then the one
  // stitch. The whole fleet is materialized either way on this path, so the
  // intermediate copies only cost a constant factor.
  const std::size_t n = shards.shard_count();
  std::vector<log::Inventory> inventories(n);
  std::vector<std::vector<FailureEvent>> events(n);
  std::vector<DatasetChunk> chunks(n);
  for (std::size_t s = 0; s < n; ++s) {
    const store::EventStore& store = shards.shard(s);
    inventories[s] = store.rebuild_inventory();
    for (const auto cls : model::kAllSystemClasses) {
      const store::EventView& view = store.events(cls);
      for (std::size_t i = 0; i < view.size(); ++i) {
        events[s].push_back(FailureEvent{view.time[i], model::DiskId(view.disk[i]),
                                         model::SystemId(view.system[i]),
                                         static_cast<model::FailureType>(view.type[i])});
      }
    }
    chunks[s] = DatasetChunk{&inventories[s], events[s],
                             static_cast<std::size_t>(shards.info(s).disks_initial)};
  }
  return stitch_chunks(chunks, shards.manifest().horizon_seconds);
}

SimulationDataset simulation_dataset_from_shards(const store::ShardStore& shards) {
  return SimulationDataset{dataset_from_shards(shards),
                           sim_counters_from_meta(shards.meta()),
                           pipeline_stats_from_meta(shards.meta())};
}

}  // namespace storsubsim::core
