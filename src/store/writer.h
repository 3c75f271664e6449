// Serializes one completed pipeline run into a columnar store file.
//
// The writer owns the determinism contract of docs/STORE.md: given the same
// inventory, events, and meta block, the produced byte image is identical
// regardless of thread count or host. Events are canonicalized into the
// classifier's global (time, disk, type) order, partitioned into one shard
// per system class, and each shard's columns are encoded concurrently
// through util::parallel_for — workers write disjoint per-shard buffers that
// are concatenated in class order, so the fan-out never reaches the bytes.
// The topology columns go the same way: one buffer and CRC per column,
// appended in directory order.
//
// The footer additionally carries a pre-computed exposure table (total,
// per-class, per-family, per-class-and-family disk-years). One sweep over
// disks in id order feeds one accumulator per entry, so each entry adds
// the same terms in the same order as a sweep over its own cohort would —
// the exact iteration order Dataset::disk_exposure_years uses — and AFR
// tables computed from a store reproduce the in-memory pipeline bit for
// bit, FP rounding included.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "log/classifier.h"
#include "log/snapshot.h"
#include "store/format.h"

namespace storsubsim::store {

/// Provenance and pipeline counters preserved in the footer's meta block so
/// a store-backed rerun can report the same statistics as the run that
/// produced it. Plain integers only: the store layer must not depend on
/// sim/ or core/, so the bridging from SimCounters/PipelineStats lives in
/// core/store_bridge.
struct StoreMeta {
  std::array<std::uint64_t, kClassCount> sim_events_by_type{};
  std::uint64_t sim_replacements = 0;
  std::uint64_t sim_triggered_disk_failures = 0;
  std::uint64_t sim_shelf_faults = 0;
  std::uint64_t sim_path_faults = 0;
  std::uint64_t sim_masked_path_faults = 0;
  std::uint64_t log_lines_written = 0;
  std::uint64_t log_lines_parsed = 0;
  std::uint64_t raid_records = 0;
  std::uint64_t failures_classified = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t missing_disk_dropped = 0;

  friend bool operator==(const StoreMeta&, const StoreMeta&) = default;
};

/// Everything that goes into one store file. `inventory` and `events` are
/// borrowed for the duration of the call; events may arrive in any order
/// (the writer canonicalizes) but every event must reference a disk and
/// system present in the inventory.
struct StoreContents {
  const log::Inventory* inventory = nullptr;
  std::span<const log::ClassifiedFailure> events;
  StoreMeta meta;
  std::uint64_t seed = 0;
  double scale = 1.0;
};

/// Builds the complete file image in memory. Deterministic: byte-identical
/// across thread counts and rebuilds from the same inputs.
// storsim-lint: allow(unused-export) reason=test seam: StoreGolden.* and StoreCorruption.* pin write_store_file's bytes through it
[[nodiscard]] Error build_store_image(const StoreContents& contents, std::string* image);

/// build_store_image + atomic-ish write (whole image in one stream).
[[nodiscard]] Error write_store_file(const std::string& path, const StoreContents& contents);

}  // namespace storsubsim::store
