// Sharded store directories: the bounded-memory form of a store.
//
// A shard directory holds N standalone STORCOL1 files ("shard-0000.store",
// ...) plus a CRC-protected text MANIFEST. Each shard covers a contiguous
// global system range [sys_begin, sys_end) of the fleet and stores
// *chunk-local* dense ids (every shard is a valid store file on its own);
// the MANIFEST records the per-shard counts from which global id bases are
// derived, the merged exposure table (bit-identical to the footer a
// monolithic store of the whole fleet would carry), and the merged pipeline
// counters — so analyses over the directory reproduce the single-file
// answers byte for byte without ever materializing the whole fleet.
//
// Global id rebasing contract (docs/STORE.md): the monolithic fleet's disk
// vector is [every shard's initial disks, in shard order] followed by
// [every shard's replacement disks, in shard order] — replacements are
// appended after all initial disks, and the serial replacement replay walks
// shelves in global order, which groups by shard. A shard-local disk id L
// therefore globalizes as
//
//   L <  disks_initial : disk_base + L
//   L >= disks_initial : total_disks_initial + replacement_base
//                        + (L - disks_initial)
//
// while systems/shelves/raid groups globalize by plain base offsets.
//
// A single STORCOL1 file opens as a one-shard ShardStore with every base at
// zero, so the analyses above the store layer have exactly one store
// backend.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "store/format.h"
#include "store/reader.h"
#include "store/writer.h"

namespace storsubsim::store {

inline constexpr std::string_view kManifestMagic = "STORSHARD1";
inline constexpr std::string_view kManifestFileName = "MANIFEST";
inline constexpr std::uint32_t kManifestVersion = 1;

/// One shard's MANIFEST entry. The count fields are written to disk; the
/// base fields are derived prefix sums, filled in by parse_manifest.
struct ShardInfo {
  std::string file;  ///< file name relative to the shard directory
  std::uint64_t file_size = 0;
  std::uint32_t header_crc = 0;  ///< crc32 of the shard's kHeaderSize-byte header
  std::uint64_t sys_begin = 0;   ///< global system range this shard covers
  std::uint64_t sys_end = 0;
  std::uint64_t systems = 0;
  std::uint64_t shelves = 0;
  std::uint64_t raid_groups = 0;
  std::uint64_t disks_initial = 0;  ///< initial disks (STORCOL1 stores only the total)
  std::uint64_t disks_total = 0;    ///< initial + replacement disk records
  std::uint64_t events = 0;

  // Derived global bases (prefix sums over preceding shards).
  std::uint64_t system_base = 0;
  std::uint64_t shelf_base = 0;
  std::uint64_t raid_group_base = 0;
  std::uint64_t disk_base = 0;         ///< global id of the first initial disk
  std::uint64_t replacement_base = 0;  ///< replacement records in earlier shards
};

/// The parsed MANIFEST: run provenance, fleet totals, merged pipeline
/// counters, the merged exposure table, and the shard list.
struct ShardManifest {
  std::uint32_t version = kManifestVersion;
  std::uint64_t seed = 0;
  double scale = 1.0;
  double horizon_seconds = 0.0;
  std::uint64_t systems = 0;
  std::uint64_t shelves = 0;
  std::uint64_t disks_initial = 0;
  std::uint64_t disks_total = 0;
  std::uint64_t raid_groups = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_rss_bytes = 0;  ///< of the build that produced the directory
  StoreMeta meta;                    ///< field-wise sum over shards
  ExposureTable exposure;            ///< merged; bit-identical to monolithic
  std::vector<ShardInfo> shards;
};

/// Renders the MANIFEST text, including the trailing CRC line. Doubles are
/// written as their u64 bit patterns in hex so the round trip is bit-exact.
// storsim-lint: allow(unused-export) reason=test oracle: ShardedBuildThreadInvariance and ShardCorruption compare manifests through it
std::string render_manifest(const ShardManifest& manifest);

/// Parses and CRC-checks a MANIFEST image, deriving the per-shard bases.
/// Truncated, reordered or corrupted input yields a typed Error.
// storsim-lint: allow(unused-export) reason=test seam: ShardCorruption.Manifest* fuzz open()'s MANIFEST parser in memory
[[nodiscard]] Error parse_manifest(std::string_view text, ShardManifest* out);

/// Writes dir/MANIFEST (render_manifest + one-shot write).
[[nodiscard]] Error write_manifest_file(const std::string& dir, const ShardManifest& manifest);

/// Sequentially opens each shard (full STORCOL1 validation, one shard in
/// memory at a time) and accumulates the merged exposure table and summed
/// meta counters. The accumulation order is the monolithic disk order —
/// every shard's initial block in shard order, then every shard's
/// replacement block in shard order — with one accumulator per cohort, so
/// each cohort's FP addition sequence equals the monolithic writer's
/// per-cohort sweep and the merged table is bit-identical to a single-file
/// store of the whole fleet. Fills each shard's file_size/header_crc too.
[[nodiscard]] Error merge_shard_tables(const std::string& dir, std::vector<ShardInfo>* shards,
                         double horizon_seconds, ExposureTable* exposure,
                         StoreMeta* meta);

/// What a path holds, judged by magic bytes alone: a STORCOL1 file, a shard
/// directory whose MANIFEST starts with STORSHARD1, or neither. Touches only
/// the first bytes of a mapping — the one place the tree recognises a store.
/// A path that is neither a regular file nor a directory (a FIFO, a process
/// substitution) is kNone without being opened.
enum class StoreShape : std::uint8_t { kNone, kFile, kShardDir };
StoreShape store_shape(const std::string& path);

/// An opened store: a shard directory, or a single STORCOL1 file held as a
/// one-shard store.
///
/// For a directory, open() validates the MANIFEST and cheaply cross-checks
/// every shard file (existence, size, header CRC and header fields against
/// the manifest entry); the expensive full-file validation happens per shard
/// on first access (lazy mmap) or all at once via open_all().
///
/// For a single file, open() maps and fully validates it once, holds it as
/// shard 0, and fills a one-entry manifest from its header and footer
/// (exposure table, meta, counts) with disks_initial = disks_total and every
/// base at zero — so each global_* is the identity and the analyses'
/// replacement-disk passes are empty.
class ShardStore {
 public:
  ShardStore() = default;

  // Shard EventStores pin mapped views; pin the owner too.
  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;
  ShardStore(ShardStore&&) = delete;
  ShardStore& operator=(ShardStore&&) = delete;

  /// Opens a shard directory (MANIFEST read, shard files cross-checked, no
  /// shard fully opened yet) or a single store file (fully validated now).
  /// A path that is neither yields kBadMagic.
  [[nodiscard]] Error open(const std::string& path);

  /// Opens and fully validates every shard now (analysis paths that will
  /// touch all shards anyway).
  [[nodiscard]] Error open_all() const;

  const ShardManifest& manifest() const noexcept { return manifest_; }
  /// The whole store's exposure table and meta counters (merged for a
  /// directory; the footer's own for a single file).
  const ExposureTable& exposure() const noexcept { return manifest_.exposure; }
  const StoreMeta& meta() const noexcept { return manifest_.meta; }
  std::size_t shard_count() const noexcept { return manifest_.shards.size(); }
  const ShardInfo& info(std::size_t i) const noexcept { return manifest_.shards[i]; }

  bool is_open(std::size_t i) const noexcept { return shards_[i] != nullptr; }
  /// Shards currently held open (mmap + validated).
  std::size_t open_count() const noexcept;

  // --- explicit open/close hooks (the storsimd shard LRU drives these) -----
  /// Maps and fully validates shard i if it is not open yet. Const because
  /// lazy opening is a caching concern. Every open is held to the MANIFEST
  /// read by open() (size, header CRC, header counts), so a shard file
  /// replaced since — a rebuild in place — fails typed instead of mixing
  /// generations. A shard failing validation reports its path in the typed
  /// error, so a mid-analysis failure names the offending file.
  [[nodiscard]] Error open_shard(std::size_t i) const;
  /// Drops shard i's mapping (a later open_shard revalidates and remaps).
  /// The caller must guarantee no live views into the shard — serve::ShardLru
  /// only releases shards whose pin count is zero.
  void release_shard(std::size_t i) const noexcept { shards_[i].reset(); }
  /// Requires a successful open_shard(i) / open_all().
  const EventStore& shard(std::size_t i) const noexcept { return *shards_[i]; }

  // --- global id rebasing (see header comment) -----------------------------
  std::uint64_t global_shelf(std::size_t i, std::uint32_t local) const noexcept {
    return manifest_.shards[i].shelf_base + local;
  }
  std::uint64_t global_raid_group(std::size_t i, std::uint32_t local) const noexcept {
    if (local == kInvalidId) return kInvalidId;
    return manifest_.shards[i].raid_group_base + local;
  }
  std::uint64_t global_disk(std::size_t i, std::uint32_t local) const noexcept {
    const ShardInfo& s = manifest_.shards[i];
    if (local < s.disks_initial) return s.disk_base + local;
    return manifest_.disks_initial + s.replacement_base + (local - s.disks_initial);
  }

  static constexpr std::uint32_t kInvalidId = 0xffffffffu;

 private:
  [[nodiscard]] Error open_directory(const std::string& dir);
  [[nodiscard]] Error open_file(const std::string& path);

  std::string dir_;  ///< directory holding the shard files
  ShardManifest manifest_;
  // Lazy-open cache (see open_shard); mutable so const readers can fault
  // shards in. Not synchronized — open shards before sharing across threads.
  mutable std::vector<std::unique_ptr<EventStore>> shards_;
};

}  // namespace storsubsim::store
