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
// The input is the fleet as a list of parts — contiguous global system
// ranges in part-local ids (a one-part list is a whole fleet). The writer
// rebases each part through its store::IdBases (store/ids.h) while it encodes
// it: topology rows go out part by part (disks as every part's initial
// block, then every part's replacement block), and events are rebased as
// they are copied into the writer's canonical sort. So an image built from N
// parts is byte-identical to the one built from the same fleet as one part.
//
// The footer additionally carries a pre-computed exposure table (total,
// per-class, per-family, per-class-and-family disk-years), filled by
// ExposureSweep below, the accumulator a shard directory's merged table
// comes from too.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "log/classifier.h"
#include "log/snapshot.h"
#include "model/enums.h"
#include "store/format.h"
#include "store/ids.h"

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

/// Pre-computed disk-year exposure aggregates (see ExposureSweep for the
/// FP contract that makes these bit-identical to core::Source sweeps).
struct ExposureTable {
  double total_disk_years = 0.0;
  std::array<double, kClassCount> class_disk_years{};
  std::array<std::uint64_t, kClassCount> class_system_count{};
  std::map<char, double> family_disk_years;
  std::map<std::pair<std::uint8_t, char>, double> class_family_disk_years;
};

/// The one exposure accumulator: a store file's footer table and a shard
/// directory's merged table both come from it. Systems go in by global id,
/// then disk records in global disk order (every piece's initial disks,
/// then every piece's replacements). Each disk's years feed one accumulator
/// per cohort — total, its system's class, disk family, and class and
/// family — so each entry adds the same terms in the same order as a sweep
/// over its own cohort would (core::Source::disk_years), and the FP
/// rounding, and the bytes, are the same. Family cohorts match
/// core::Filter::disk_family: the *system's* disk family selects.
class ExposureSweep {
 public:
  explicit ExposureSweep(double horizon_seconds) : horizon_(horizon_seconds) {}

  /// The next system in global id order: counts it and opens its cohorts.
  void add_system(model::SystemClass cls, char family);
  /// One disk record of global system `system` (already added).
  void add_disk(std::uint64_t system, double install_time, double remove_time);

  const ExposureTable& table() const noexcept { return table_; }

 private:
  struct Cohorts {
    std::size_t cls = 0;
    double* family = nullptr;  ///< map nodes never move
    double* class_family = nullptr;
  };
  double horizon_;
  ExposureTable table_;
  std::vector<Cohorts> systems_;
};

/// One part of the fleet the writer encodes: a contiguous global system
/// range in part-local dense ids (entry i of each inventory vector has id
/// i), and where those ids land globally (the default: the whole fleet as
/// one part). Every event must reference a disk and system of its part.
struct StorePart {
  const log::Inventory* inventory = nullptr;
  std::span<const log::ClassifiedFailure> events;
  IdBases ids;
};

/// Everything that goes into one store file: the parts, in global system
/// order (what they point to is borrowed for the duration of the call;
/// events may arrive in any order, the writer canonicalizes), the meta
/// block, and the provenance.
struct StoreContents {
  std::vector<StorePart> parts;
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
