#include "core/store_bridge.h"

#include <vector>

namespace storsubsim::core {

namespace {

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

}  // namespace

store::StoreContents store_contents(const SimulationDataset& run, std::uint64_t seed,
                                    double scale) {
  store::StoreContents contents;
  for (const Dataset::Part& p : run.dataset.parts()) {
    contents.parts.push_back(store::StorePart{p.inventory.get(), p.events, p.ids});
  }
  contents.meta = make_store_meta(run.counters, run.pipeline);
  contents.seed = seed;
  contents.scale = scale;
  return contents;
}

store::Error write_store(const std::string& path, const SimulationDataset& run,
                         std::uint64_t seed, double scale) {
  return store::write_store_file(path, store_contents(run, seed, scale));
}

}  // namespace storsubsim::core
