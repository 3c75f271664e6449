#include "core/store_bridge.h"

#include <algorithm>
#include <memory>
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
  const store::ShardManifest& manifest = shards.manifest();

  // Per-shard local inventories, then stitch in the global order. The whole
  // fleet is materialized either way on this path, so the intermediate copies
  // only cost a constant factor.
  std::vector<log::Inventory> local;
  local.reserve(shards.shard_count());
  for (std::size_t s = 0; s < shards.shard_count(); ++s) {
    local.push_back(shards.shard(s).rebuild_inventory());
  }

  log::Inventory inv;
  inv.horizon_seconds = manifest.horizon_seconds;
  inv.systems.reserve(static_cast<std::size_t>(manifest.systems));
  inv.shelves.reserve(static_cast<std::size_t>(manifest.shelves));
  inv.disks.reserve(static_cast<std::size_t>(manifest.disks_total));
  inv.raid_groups.reserve(static_cast<std::size_t>(manifest.raid_groups));

  for (std::size_t s = 0; s < local.size(); ++s) {
    for (const auto& sys : local[s].systems) {
      log::InventorySystem out = sys;
      out.id = model::SystemId(
          static_cast<std::uint32_t>(shards.global_system(s, sys.id.value())));
      inv.systems.push_back(out);
    }
    for (const auto& shelf : local[s].shelves) {
      log::InventoryShelf out = shelf;
      out.id = model::ShelfId(
          static_cast<std::uint32_t>(shards.global_shelf(s, shelf.id.value())));
      out.system = model::SystemId(
          static_cast<std::uint32_t>(shards.global_system(s, shelf.system.value())));
      inv.shelves.push_back(out);
    }
    for (const auto& rg : local[s].raid_groups) {
      log::InventoryRaidGroup out = rg;
      out.id = model::RaidGroupId(
          static_cast<std::uint32_t>(shards.global_raid_group(s, rg.id.value())));
      out.system = model::SystemId(
          static_cast<std::uint32_t>(shards.global_system(s, rg.system.value())));
      inv.raid_groups.push_back(out);
    }
  }

  // Disks: the monolithic order is [every shard's initial disks, in shard
  // order] then [every shard's replacement disks, in shard order]
  // (docs/STORE.md), so two shard-major passes reproduce it exactly.
  auto rebased_disk = [&](std::size_t s, const log::InventoryDisk& d) {
    log::InventoryDisk out = d;
    out.id =
        model::DiskId(static_cast<std::uint32_t>(shards.global_disk(s, d.id.value())));
    out.system = model::SystemId(
        static_cast<std::uint32_t>(shards.global_system(s, d.system.value())));
    out.shelf = model::ShelfId(
        static_cast<std::uint32_t>(shards.global_shelf(s, d.shelf.value())));
    out.raid_group = model::RaidGroupId(
        static_cast<std::uint32_t>(shards.global_raid_group(s, d.raid_group.value())));
    return out;
  };
  for (const bool replacement_pass : {false, true}) {
    for (std::size_t s = 0; s < local.size(); ++s) {
      const auto initial = static_cast<std::size_t>(shards.info(s).disks_initial);
      const std::size_t begin = replacement_pass ? initial : 0;
      const std::size_t end = replacement_pass ? local[s].disks.size() : initial;
      for (std::size_t i = begin; i < end; ++i) {
        inv.disks.push_back(rebased_disk(s, local[s].disks[i]));
      }
    }
  }
  local.clear();

  std::vector<FailureEvent> events;
  events.reserve(static_cast<std::size_t>(manifest.events));
  for (std::size_t s = 0; s < shards.shard_count(); ++s) {
    const store::EventStore& store = shards.shard(s);
    for (const auto cls : model::kAllSystemClasses) {
      const store::EventView& view = store.events(cls);
      for (std::size_t i = 0; i < view.size(); ++i) {
        events.push_back(FailureEvent{
            view.time[i],
            model::DiskId(static_cast<std::uint32_t>(shards.global_disk(s, view.disk[i]))),
            model::SystemId(
                static_cast<std::uint32_t>(shards.global_system(s, view.system[i]))),
            static_cast<model::FailureType>(view.type[i])});
      }
    }
  }
  // Restore the canonical global order across shards and class shards
  // (each is already (time, disk, type)-sorted internally); global ids make
  // the key identical to the monolithic one.
  std::sort(events.begin(), events.end(),
            [](const FailureEvent& a, const FailureEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.disk != b.disk) return a.disk < b.disk;
              return static_cast<int>(a.type) < static_cast<int>(b.type);
            });
  return Dataset(std::make_shared<log::Inventory>(std::move(inv)), std::move(events));
}

SimulationDataset simulation_dataset_from_shards(const store::ShardStore& shards) {
  return SimulationDataset{dataset_from_shards(shards),
                           sim_counters_from_meta(shards.meta()),
                           pipeline_stats_from_meta(shards.meta())};
}

}  // namespace storsubsim::core
