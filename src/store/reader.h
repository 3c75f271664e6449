// Memory-mapped store reader: validation, zero-copy column views, and the
// cached per-shard event views that the query engine and core overloads
// consume.
//
// EventStore::open performs *all* integrity checking up front — header and
// footer CRCs, column directory bounds/alignment/row arithmetic, per-column
// CRC32, varint decode, and domain validation of every enum and id value.
// After a successful open, every accessor is plain span arithmetic: no
// check can fail later, and a corrupted or truncated file can never reach
// undefined behavior (it is rejected with a typed Error instead).
//
// Lifetime rule: every ColumnView/EventView aliases the mapping owned by
// the EventStore (decoded time values alias an internal cache). Views must
// not outlive the store, and the store is pinned in memory (non-movable)
// so views taken once stay valid for its whole life.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "log/snapshot.h"
#include "model/enums.h"
#include "store/format.h"
#include "store/mmap_file.h"
#include "store/writer.h"

namespace storsubsim::store {

/// One validated column: raw bytes plus decoded typing. Spans alias the
/// mapping; `as_u32`/`as_f64` require the 8-byte alignment the writer
/// guarantees (verified during open).
struct ColumnView {
  ColumnId id = ColumnId::kEventTime;
  Encoding encoding = Encoding::kRaw;
  std::uint64_t rows = 0;
  const char* data = nullptr;
  std::size_t size = 0;

  std::span<const std::uint8_t> as_u8() const noexcept {
    return {reinterpret_cast<const std::uint8_t*>(data), static_cast<std::size_t>(rows)};
  }
  std::span<const std::uint32_t> as_u32() const noexcept {
    return {reinterpret_cast<const std::uint32_t*>(data), static_cast<std::size_t>(rows)};
  }
  std::span<const double> as_f64() const noexcept {
    return {reinterpret_cast<const double*>(data), static_cast<std::size_t>(rows)};
  }
};

/// All seven event columns of one system-class shard as parallel spans —
/// the unit the core analyses' store overloads consume. Row i across the
/// spans is one classified failure, in canonical (time, disk, type) order.
struct EventView {
  std::span<const double> time;
  std::span<const std::uint8_t> type;        ///< model::FailureType
  std::span<const std::uint8_t> family;      ///< owning system's disk family
  std::span<const std::uint32_t> disk;
  std::span<const std::uint32_t> system;
  std::span<const std::uint32_t> shelf;
  std::span<const std::uint32_t> raid_group;

  std::size_t size() const noexcept { return time.size(); }
  bool empty() const noexcept { return time.empty(); }
};

/// Footer block-index entry: `rows` canonical-order rows of `shard` starting
/// at shard-relative `row_begin`, with detection times in
/// [time_min, time_max]. Lets time-window queries skip whole blocks.
struct BlockEntry {
  std::uint8_t shard = 0;
  std::uint64_t row_begin = 0;
  std::uint64_t rows = 0;
  double time_min = 0.0;
  double time_max = 0.0;
};

class EventStore {
 public:
  EventStore() = default;

  // Views alias this object's mapping and caches; pin it in place.
  EventStore(const EventStore&) = delete;
  EventStore& operator=(const EventStore&) = delete;
  EventStore(EventStore&&) = delete;
  EventStore& operator=(EventStore&&) = delete;

  /// Maps and fully validates a store file.
  [[nodiscard]] Error open(const std::string& path);

  /// Validates an in-memory image (tests, fuzzing); takes ownership.
  // storsim-lint: allow(unused-export) reason=test seam: StoreCorruption.* check open()'s validation on in-memory images
  [[nodiscard]] Error open_image(std::string image);

  const Header& header() const noexcept { return header_; }
  const StoreMeta& meta() const noexcept { return meta_; }
  const ExposureTable& exposure() const noexcept { return exposure_; }

  std::uint64_t event_count() const noexcept { return header_.event_count; }
  /// Events of one system class, canonical (time, disk, type) order.
  const EventView& events(model::SystemClass cls) const noexcept {
    return views_[model::index_of(cls)];
  }
  /// This shard's slice of the time-window block index.
  std::span<const BlockEntry> blocks(model::SystemClass cls) const noexcept {
    const auto& range = shard_blocks_[model::index_of(cls)];
    return std::span<const BlockEntry>(blocks_).subspan(range.first, range.second);
  }

  /// A validated topology column (shard kTopologyShard). Never nullptr for
  /// the columns format.h declares — open() verified their presence.
  const ColumnView* topology(ColumnId id) const noexcept {
    const auto it = columns_.find({kTopologyShard, static_cast<std::uint16_t>(id)});
    return it == columns_.end() ? nullptr : &it->second;
  }

  /// A validated event column of one class shard, raw encoded bytes included
  /// (decode benchmarks and kernel differential tests). Never nullptr for
  /// the event columns format.h declares — open() verified their presence.
  const ColumnView* event_column(model::SystemClass cls, ColumnId id) const noexcept {
    const auto it = columns_.find({static_cast<std::uint8_t>(model::index_of(cls)),
                                   static_cast<std::uint16_t>(id)});
    return it == columns_.end() ? nullptr : &it->second;
  }

 private:
  [[nodiscard]] Error load();

  MmapFile file_;
  std::string owned_image_;             ///< backing bytes for open_image
  std::vector<std::uint64_t> aligned_;  ///< realigned copy if the heap image needs it
  const char* data_ = nullptr;
  std::size_t size_ = 0;

  Header header_;
  StoreMeta meta_;
  ExposureTable exposure_;
  std::vector<BlockEntry> blocks_;
  std::array<std::pair<std::size_t, std::size_t>, kClassCount> shard_blocks_{};

  std::map<std::pair<std::uint8_t, std::uint16_t>, ColumnView> columns_;
  std::array<std::vector<double>, kClassCount> times_;
  std::array<EventView, kClassCount> views_{};
};

}  // namespace storsubsim::store
