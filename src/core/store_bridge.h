// Bridges the analysis layer to the columnar event store (src/store/):
// "simulate once, analyze many".
//
// The store library deliberately knows nothing about sim/ or core/ — its
// meta block is plain integers. This header owns the two-way mapping:
// a completed SimulationDataset (events + inventory + counters) is written
// out with write_store, and a store file is rehydrated into the *exact*
// Dataset the pipeline would have produced with dataset_from_shards — same
// event bytes, same inventory, same FP results from every analysis.
#pragma once

#include <cstdint>
#include <string>

#include "core/pipeline.h"
#include "store/shards.h"
#include "store/writer.h"

namespace storsubsim::core {

/// Mirrors a completed run's counters into the store's meta block.
store::StoreMeta make_store_meta(const sim::SimCounters& counters,
                                 const PipelineStats& pipeline);

/// Reverse mapping, for store-backed reruns that report the original run's
/// statistics.
sim::SimCounters sim_counters_from_meta(const store::StoreMeta& meta);
PipelineStats pipeline_stats_from_meta(const store::StoreMeta& meta);

/// Serializes a completed run to `path`. `seed`/`scale` are provenance
/// recorded in the header (the dataset does not know them).
[[nodiscard]] store::Error write_store(const std::string& path, const SimulationDataset& run,
                         std::uint64_t seed, double scale);

/// Rebuilds the exact in-memory Dataset the pipeline produced from an opened
/// store (a shard directory, or a single file as one shard): every shard's
/// local inventory and events go through stitch_chunks, the same id
/// rebasing and (time, disk, type) sort simulate_and_analyze stitches its
/// chunks with — so every analysis over the result is bit-identical to the
/// pipeline's. This materializes the whole fleet — reach for the streaming
/// Source(ShardStore) analyses when the fleet is too large. Requires every
/// shard open (open_all).
Dataset dataset_from_shards(const store::ShardStore& shards);

/// Dataset plus the original run's counters from the store's meta block.
/// Stage timings are zero — nothing was simulated.
SimulationDataset simulation_dataset_from_shards(const store::ShardStore& shards);

}  // namespace storsubsim::core
