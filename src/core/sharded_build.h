// Sharded store builds: mega-fleets in bounded memory.
//
// The single-file path (simulate_and_analyze + write_store) runs the same
// chunks but keeps every chunk's dataset, as the parts of one Dataset, and
// encodes them into one store image, so its peak RSS grows linearly with
// --scale. build_sharded_store instead writes each chunk out as a
// standalone STORCOL1 shard as soon as its worker finishes it, so peak
// memory is bounded by the chunks in flight, not the fleet. Both run each
// chunk through core::run_chunk (chunk fleet -> simulate -> emit -> parse
// -> classify, snapshot round trip).
//
// Bit-identity: a chunk's fleet is positioned by RNG fork replay
// (model::Fleet::build_chunk) and its simulator substreams are keyed by
// global indices (sim::SimIndexBases), so every sampled value equals the
// corresponding slice of the whole-fleet run. The MANIFEST's merged exposure
// table reproduces the single-file accumulation order, making every analysis
// over the shard directory byte-identical to the single-file store
// (docs/STORE.md).
//
// Parallelism: shards fan out across the shared pool into disjoint chunk
// buffers; an RSS budget caps the number of in-flight chunks instead of
// failing. Results are bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/fleet_config.h"
#include "sim/params.h"
#include "store/shards.h"

namespace storsubsim::core {

struct ShardedBuildOptions {
  /// Shard count; 0 derives it from max_rss_mb (or 1 with no budget).
  std::size_t shards = 0;
  /// Peak-RSS budget in MiB; 0 = unbudgeted. With a budget the shard count
  /// and the number of in-flight chunks are chosen so the estimated working
  /// set stays under it.
  std::uint64_t max_rss_mb = 0;
  sim::SimParams params = sim::SimParams::standard();
};

struct ShardedBuildResult {
  std::size_t shards = 0;
  std::uint64_t events = 0;
  std::uint64_t disk_records = 0;
  std::uint64_t peak_rss_bytes = 0;        ///< VmHWM after the build (0 = unknown)
  std::vector<double> shard_build_seconds; ///< per-shard simulate+pipeline+write
};

/// Rough peak working set of building one chunk, in bytes per initial disk:
/// fleet records, simulator state, the text-log round-trip and the encoded
/// store image. Deliberately conservative; used only to derive shard counts
/// from --max-rss-mb.
inline constexpr std::uint64_t kBuildBytesPerDisk = 1536;

/// Simulates `config` in chunks and writes a shard directory (STORCOL1
/// shards + MANIFEST) to `dir`, creating it if needed. Returns the first
/// error encountered; on success the directory opens with
/// store::ShardStore::open and analyses over it are byte-identical to the
/// single-file store of the same config/seed.
[[nodiscard]] store::Error build_sharded_store(const std::string& dir, const model::FleetConfig& config,
                                 const ShardedBuildOptions& options,
                                 ShardedBuildResult* result = nullptr);

}  // namespace storsubsim::core
