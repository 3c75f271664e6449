// Bridges the analysis layer to the columnar event store (src/store/):
// "simulate once, analyze many".
//
// The store library deliberately knows nothing about sim/ or core/ — its
// meta block is plain integers. This header owns the mapping one way: a
// completed SimulationDataset (its Dataset's parts + counters) is written
// out with write_store, one store::StorePart per Dataset part, so the file
// is the same bytes however the run was cut into parts. The way back needs
// no Dataset: core::Source reads an opened store directly, and the meta
// block carries the run's counters.
#pragma once

#include <cstdint>
#include <string>

#include "core/pipeline.h"
#include "store/shards.h"
#include "store/writer.h"

namespace storsubsim::core {

/// The store writer's input for a completed run: one store::StorePart per
/// Dataset part (borrowing the run's inventories and events), the run's
/// counters mirrored into the meta block, and `seed`/`scale` provenance.
// storsim-lint: allow(unused-export) reason=test seam: StoreRoundTrip.* and ThreadInvariance build store images of a run through it
store::StoreContents store_contents(const SimulationDataset& run, std::uint64_t seed,
                                    double scale);

/// Serializes a completed run to `path`. `seed`/`scale` are provenance
/// recorded in the header (the dataset does not know them).
[[nodiscard]] store::Error write_store(const std::string& path, const SimulationDataset& run,
                         std::uint64_t seed, double scale);

}  // namespace storsubsim::core
