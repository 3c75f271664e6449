#include "store/writer.h"

#include <algorithm>
#include <functional>
#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "model/time.h"
#include "store/mmap_file.h"
#include "util/parallel.h"

namespace storsubsim::store {

namespace {

/// Column bookkeeping while the image is under construction. Offsets are
/// relative to the enclosing buffer until final assembly.
struct ColumnRecord {
  std::uint8_t shard = 0;
  ColumnId id = ColumnId::kEventTime;
  Encoding encoding = Encoding::kRaw;
  std::uint64_t rows = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

/// One footer block-index entry; `row_begin` is relative to the shard.
struct BlockRecord {
  std::uint8_t shard = 0;
  std::uint64_t row_begin = 0;
  std::uint64_t rows = 0;
  double time_min = 0.0;
  double time_max = 0.0;
};

/// Bytes reserved for the footer's fixed parts: the meta block, the
/// exposure table and the column directory (block entries are added per
/// shard).
constexpr std::size_t kFooterAllowance = 16 * 1024;

void pad_to_alignment(std::string& out) {
  while (out.size() % kColumnAlignment != 0) out.push_back('\0');
}

/// Seals the column that started at `begin`: computes its CRC and records it.
void finish_column(std::string& buf, std::size_t begin, std::uint8_t shard,
                   ColumnId id, Encoding encoding, std::uint64_t rows,
                   std::vector<ColumnRecord>& columns) {
  ColumnRecord rec;
  rec.shard = shard;
  rec.id = id;
  rec.encoding = encoding;
  rec.rows = rows;
  rec.offset = begin;
  rec.size = buf.size() - begin;
  rec.crc = crc32(buf.data() + begin, buf.size() - begin);
  columns.push_back(rec);
}

/// Encoded bytes + directory entries of one event shard (one system class).
struct ShardEncoding {
  std::string bytes;
  std::vector<ColumnRecord> columns;  ///< offsets relative to `bytes`
  std::vector<BlockRecord> blocks;
};

/// One event as the file stores it: global ids, the owning system's disk
/// family, and its class (the event shard it goes to).
struct EventRecord {
  double time = 0.0;
  std::uint32_t disk = 0;
  std::uint32_t system = 0;
  std::uint32_t shelf = 0;
  std::uint32_t raid_group = 0;
  std::uint8_t type = 0;
  std::uint8_t family = 0;
  std::uint8_t cls = 0;
};

/// Encodes the seven event columns of one class shard. Events are already in
/// canonical (time, disk, type) order.
ShardEncoding encode_event_shard(std::uint8_t shard, std::span<const EventRecord> events) {
  ShardEncoding out;
  const auto rows = static_cast<std::uint64_t>(events.size());
  // time/varint is ~4 B per row at full scale; the six raw columns are 18 B.
  out.bytes.reserve(events.size() * 24 + 64);

  // kEventTime: delta of consecutive f64 bit patterns, zigzag + varint.
  // Times are sorted non-negative doubles, whose bit patterns sort the same
  // way, so deltas are small non-negative integers.
  std::size_t begin = out.bytes.size();
  std::int64_t prev = 0;
  for (const auto& e : events) {
    std::int64_t bits = 0;
    std::memcpy(&bits, &e.time, sizeof(bits));
    append_varint(out.bytes, zigzag_encode(bits - prev));
    prev = bits;
  }
  finish_column(out.bytes, begin, shard, ColumnId::kEventTime,
                Encoding::kDeltaVarint, rows, out.columns);

  pad_to_alignment(out.bytes);
  begin = out.bytes.size();
  for (const auto& e : events) append_u8(out.bytes, e.type);
  finish_column(out.bytes, begin, shard, ColumnId::kEventType, Encoding::kRaw, rows,
                out.columns);

  pad_to_alignment(out.bytes);
  begin = out.bytes.size();
  for (const auto& e : events) append_u8(out.bytes, e.family);
  finish_column(out.bytes, begin, shard, ColumnId::kEventFamily, Encoding::kRaw, rows,
                out.columns);

  pad_to_alignment(out.bytes);
  begin = out.bytes.size();
  for (const auto& e : events) append_u32(out.bytes, e.disk);
  finish_column(out.bytes, begin, shard, ColumnId::kEventDisk, Encoding::kRaw, rows,
                out.columns);

  pad_to_alignment(out.bytes);
  begin = out.bytes.size();
  for (const auto& e : events) append_u32(out.bytes, e.system);
  finish_column(out.bytes, begin, shard, ColumnId::kEventSystem, Encoding::kRaw, rows,
                out.columns);

  pad_to_alignment(out.bytes);
  begin = out.bytes.size();
  for (const auto& e : events) append_u32(out.bytes, e.shelf);
  finish_column(out.bytes, begin, shard, ColumnId::kEventShelf, Encoding::kRaw, rows,
                out.columns);

  pad_to_alignment(out.bytes);
  begin = out.bytes.size();
  for (const auto& e : events) append_u32(out.bytes, e.raid_group);
  finish_column(out.bytes, begin, shard, ColumnId::kEventRaidGroup, Encoding::kRaw,
                rows, out.columns);
  pad_to_alignment(out.bytes);

  // Time-window block index over this shard's canonical order.
  for (std::uint64_t row = 0; row < rows; row += kBlockRows) {
    BlockRecord block;
    block.shard = shard;
    block.row_begin = row;
    block.rows = std::min<std::uint64_t>(kBlockRows, rows - row);
    block.time_min = events[row].time;
    block.time_max = events[row + block.rows - 1].time;
    out.blocks.push_back(block);
  }
  return out;
}

/// Calls f(part, row) for every row of one inventory `table` in global id
/// order: part by part, and disks as every part's initial block, then every
/// part's replacement block.
template <typename Row, typename F>
void for_each_row(std::span<const StorePart> pieces, std::vector<Row> log::Inventory::*table,
                  F&& f) {
  for (const bool replacements : {false, true}) {
    for (const StorePart& p : pieces) {
      const std::vector<Row>& rows = p.inventory->*table;
      const std::size_t split =
          std::is_same_v<Row, log::InventoryDisk> ? p.ids.disks_initial : rows.size();
      const std::size_t end = replacements ? rows.size() : split;
      for (std::size_t i = replacements ? split : 0; i < end; ++i) f(p, rows[i]);
    }
  }
}

/// One topology column to encode: `encode` appends its `rows` rows to an
/// empty buffer.
struct TopologyColumn {
  ColumnId id = ColumnId::kSysClass;
  std::uint64_t rows = 0;
  std::function<void(std::string&)> encode;
};

/// An encoded column and its directory entry (offset 0 until assembly).
struct EncodedColumn {
  std::string bytes;
  ColumnRecord record;
};

/// Encodes and CRCs the topology columns through the shared pool, one buffer
/// per column, in directory order; assembly appends them in that order, so
/// the image does not depend on scheduling.
std::vector<EncodedColumn> encode_topology(std::span<const StorePart> pieces) {
  // A column whose row is what `append_row(out, part, row)` appends.
  const auto column = [pieces](ColumnId id, auto table, auto append_row) {
    std::uint64_t rows = 0;
    for (const StorePart& p : pieces) rows += (p.inventory->*table).size();
    return TopologyColumn{id, rows, [pieces, table, append_row](std::string& out) {
                            for_each_row(pieces, table, [&](const StorePart& p, const auto& row) {
                              append_row(out, p, row);
                            });
                          }};
  };
  const auto u8 = [](auto v) { return static_cast<std::uint8_t>(v); };
  const auto u32 = [](auto v) { return static_cast<std::uint32_t>(v); };
  constexpr auto kSys = &log::Inventory::systems;
  constexpr auto kShelf = &log::Inventory::shelves;
  constexpr auto kDisk = &log::Inventory::disks;
  constexpr auto kRg = &log::Inventory::raid_groups;
  using S = std::string;
  using P = const StorePart&;
  using Sys = log::InventorySystem;
  using Shelf = log::InventoryShelf;
  using Disk = log::InventoryDisk;
  using Rg = log::InventoryRaidGroup;
  const std::vector<TopologyColumn> spec = {
    column(ColumnId::kSysClass, kSys, [u8](S& out, P, const Sys& s) { append_u8(out, u8(s.cls)); }),
    column(ColumnId::kSysPaths, kSys,
           [u8](S& out, P, const Sys& s) { append_u8(out, u8(s.paths)); }),
    column(ColumnId::kSysDiskFamily, kSys,
           [u8](S& out, P, const Sys& s) { append_u8(out, u8(s.disk_model.family)); }),
    column(ColumnId::kSysDiskCap, kSys,
           [u32](S& out, P, const Sys& s) { append_u32(out, u32(s.disk_model.capacity_index)); }),
    column(ColumnId::kSysShelfModel, kSys,
           [u8](S& out, P, const Sys& s) { append_u8(out, u8(s.shelf_model.letter)); }),
    column(ColumnId::kSysDeploy, kSys,
           [](S& out, P, const Sys& s) { append_f64(out, s.deploy_time); }),
    column(ColumnId::kSysCohort, kSys, [](S& out, P, const Sys& s) { append_u32(out, s.cohort); }),
    column(ColumnId::kShelfSystem, kShelf, [u32](S& out, P p, const Shelf& sh) {
      append_u32(out, u32(p.ids.system + sh.system.value()));
    }),
    column(ColumnId::kShelfModel, kShelf,
           [u8](S& out, P, const Shelf& sh) { append_u8(out, u8(sh.model.letter)); }),
    column(ColumnId::kDiskFamily, kDisk,
           [u8](S& out, P, const Disk& d) { append_u8(out, u8(d.model.family)); }),
    column(ColumnId::kDiskCap, kDisk,
           [u32](S& out, P, const Disk& d) { append_u32(out, u32(d.model.capacity_index)); }),
    column(ColumnId::kDiskSystem, kDisk, [u32](S& out, P p, const Disk& d) {
      append_u32(out, u32(p.ids.system + d.system.value()));
    }),
    column(ColumnId::kDiskShelf, kDisk, [u32](S& out, P p, const Disk& d) {
      append_u32(out, u32(p.ids.global_shelf(d.shelf.value())));
    }),
    column(ColumnId::kDiskRaidGroup, kDisk, [u32](S& out, P p, const Disk& d) {
      append_u32(out, u32(p.ids.global_raid_group(d.raid_group.value())));
    }),
    column(ColumnId::kDiskSlot, kDisk, [](S& out, P, const Disk& d) { append_u32(out, d.slot); }),
    column(ColumnId::kDiskInstall, kDisk,
           [](S& out, P, const Disk& d) { append_f64(out, d.install_time); }),
    column(ColumnId::kDiskRemove, kDisk,
           [](S& out, P, const Disk& d) { append_f64(out, d.remove_time); }),
    column(ColumnId::kRgSystem, kRg, [u32](S& out, P p, const Rg& g) {
      append_u32(out, u32(p.ids.system + g.system.value()));
    }),
    column(ColumnId::kRgType, kRg, [u8](S& out, P, const Rg& g) { append_u8(out, u8(g.type)); }),
    column(ColumnId::kRgMembers, kRg,
           [](S& out, P, const Rg& g) { append_u32(out, g.member_count); }),
    column(ColumnId::kRgSpan, kRg, [](S& out, P, const Rg& g) { append_u32(out, g.shelf_span); }),
  };

  // Stride the columns across the workers: the eight disk columns hold
  // nearly all the bytes and sit together in directory order, so contiguous
  // chunks would leave two workers with all of them.
  std::vector<EncodedColumn> encoded(spec.size());
  const std::size_t workers = std::min<std::size_t>(util::thread_count(), spec.size());
  util::parallel_for(workers, [&](std::size_t begin, std::size_t end) {
    for (std::size_t w = begin; w < end; ++w) {
      for (std::size_t c = w; c < spec.size(); c += workers) {
        std::string& bytes = encoded[c].bytes;
        bytes.reserve(spec[c].rows * sizeof(double));
        spec[c].encode(bytes);
        const std::uint32_t crc = crc32(bytes.data(), bytes.size());
        encoded[c].record = ColumnRecord{kTopologyShard, spec[c].id, Encoding::kRaw,
                                         spec[c].rows, 0, bytes.size(), crc};
      }
    }
  });
  return encoded;
}

void append_meta(std::string& out, const StoreMeta& meta) {
  for (const auto v : meta.sim_events_by_type) append_u64(out, v);
  append_u64(out, meta.sim_replacements);
  append_u64(out, meta.sim_triggered_disk_failures);
  append_u64(out, meta.sim_shelf_faults);
  append_u64(out, meta.sim_path_faults);
  append_u64(out, meta.sim_masked_path_faults);
  append_u64(out, meta.log_lines_written);
  append_u64(out, meta.log_lines_parsed);
  append_u64(out, meta.raid_records);
  append_u64(out, meta.failures_classified);
  append_u64(out, meta.duplicates_dropped);
  append_u64(out, meta.missing_disk_dropped);
}

void append_exposure(std::string& out, const ExposureTable& table) {
  append_f64(out, table.total_disk_years);
  for (const double years : table.class_disk_years) append_f64(out, years);
  for (const std::uint64_t n : table.class_system_count) append_u64(out, n);
  append_u32(out, static_cast<std::uint32_t>(table.family_disk_years.size()));
  for (const auto& [family, years] : table.family_disk_years) {
    append_u8(out, static_cast<std::uint8_t>(family));
    append_f64(out, years);
  }
  append_u32(out, static_cast<std::uint32_t>(table.class_family_disk_years.size()));
  for (const auto& [key, years] : table.class_family_disk_years) {
    append_u8(out, key.first);
    append_u8(out, static_cast<std::uint8_t>(key.second));
    append_f64(out, years);
  }
}

void append_directory(std::string& out, const std::vector<ColumnRecord>& columns) {
  append_u32(out, static_cast<std::uint32_t>(columns.size()));
  for (const auto& col : columns) {
    append_u8(out, col.shard);
    append_u16(out, static_cast<std::uint16_t>(col.id));
    append_u8(out, static_cast<std::uint8_t>(col.encoding));
    append_u64(out, col.rows);
    append_u64(out, col.offset);
    append_u64(out, col.size);
    append_u32(out, col.crc);
  }
}

void append_block_index(std::string& out, const std::vector<BlockRecord>& blocks) {
  append_u32(out, static_cast<std::uint32_t>(blocks.size()));
  for (const auto& block : blocks) {
    append_u8(out, block.shard);
    append_u64(out, block.row_begin);
    append_u64(out, block.rows);
    append_f64(out, block.time_min);
    append_f64(out, block.time_max);
  }
}

}  // namespace

void ExposureSweep::add_system(model::SystemClass cls, char family) {
  const auto c = static_cast<std::uint8_t>(model::index_of(cls));
  systems_.push_back(Cohorts{c, &table_.family_disk_years[family],
                             &table_.class_family_disk_years[{c, family}]});
  ++table_.class_system_count[c];
}

void ExposureSweep::add_disk(std::uint64_t system, double install_time, double remove_time) {
  const double years = model::exposure_years(install_time, remove_time, horizon_);
  const Cohorts& of = systems_[system];
  table_.total_disk_years += years;
  table_.class_disk_years[of.cls] += years;
  *of.family += years;
  *of.class_family += years;
}

Error build_store_image(const StoreContents& contents, std::string* image) {
  obs::Span span("store.build_image");
  if (contents.parts.empty()) return make_error(ErrorCode::kBadValue, "writer: no parts");
  for (const StorePart& part : contents.parts) {
    if (part.inventory == nullptr) {
      return make_error(ErrorCode::kBadValue, "writer: null inventory");
    }
    const log::Inventory& inv = *part.inventory;
    if (part.ids.disks_initial > inv.disks.size()) {
      return make_error(ErrorCode::kBadValue, "writer: more initial disks than disk records");
    }
    // Validate references up front so encoding can index without checks.
    for (const auto& e : part.events) {
      if (e.disk.value() >= inv.disks.size()) {
        return make_error(ErrorCode::kBadValue, "writer: event references unknown disk");
      }
      if (e.system.value() >= inv.systems.size()) {
        return make_error(ErrorCode::kBadValue, "writer: event references unknown system");
      }
    }
  }
  const std::span<const StorePart> pieces = contents.parts;
  const double horizon = pieces[0].inventory->horizon_seconds;

  // Every event, rebased and looked up through the part that owns it, in
  // canonical order: by class (the shard it goes to), then the classifier's
  // global (time, disk, type) order. The writer sorts unconditionally so the
  // image is a pure function of the event *set*, not of the order or the
  // parts the caller happened to hold it in.
  std::vector<EventRecord> sorted;
  std::size_t n_events = 0;
  for (const StorePart& part : contents.parts) n_events += part.events.size();
  sorted.reserve(n_events);
  for (const StorePart& part : pieces) {
    const log::Inventory& inv = *part.inventory;
    const IdBases& ids = part.ids;
    for (const auto& e : part.events) {
      const log::InventoryDisk& disk = inv.disks[e.disk.value()];
      const log::InventorySystem& sys = inv.systems[e.system.value()];
      sorted.push_back(EventRecord{
          e.time, static_cast<std::uint32_t>(ids.global_disk(e.disk.value())),
          static_cast<std::uint32_t>(ids.system + e.system.value()),
          static_cast<std::uint32_t>(ids.global_shelf(disk.shelf.value())),
          static_cast<std::uint32_t>(ids.global_raid_group(disk.raid_group.value())),
          static_cast<std::uint8_t>(e.type), static_cast<std::uint8_t>(sys.disk_model.family),
          static_cast<std::uint8_t>(model::index_of(sys.cls))});
    }
  }
  std::sort(sorted.begin(), sorted.end(), [](const EventRecord& a, const EventRecord& b) {
    if (a.cls != b.cls) return a.cls < b.cls;
    if (a.time != b.time) return a.time < b.time;
    if (a.disk != b.disk) return a.disk < b.disk;
    return a.type < b.type;
  });

  // Encode the four class shards through the shared pool. Workers touch
  // disjoint slots of `shards`; the merge below walks class order, so the
  // image is independent of scheduling.
  std::array<std::span<const EventRecord>, kClassCount> per_class;
  for (std::size_t at = 0; at < sorted.size();) {
    std::size_t end = at;
    while (end < sorted.size() && sorted[end].cls == sorted[at].cls) ++end;
    per_class[sorted[at].cls] = std::span<const EventRecord>(sorted).subspan(at, end - at);
    at = end;
  }
  std::array<ShardEncoding, kClassCount> shards;
  util::parallel_for(kClassCount, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      shards[s] = encode_event_shard(static_cast<std::uint8_t>(s), per_class[s]);
    }
  });

  const std::vector<EncodedColumn> topology = encode_topology(pieces);

  ExposureSweep exposure(horizon);
  for_each_row(pieces, &log::Inventory::systems, [&](const StorePart&, const auto& sys) {
    exposure.add_system(sys.cls, sys.disk_model.family);
  });
  for_each_row(pieces, &log::Inventory::disks, [&](const StorePart& p, const auto& d) {
    exposure.add_disk(p.ids.system + d.system.value(), d.install_time, d.remove_time);
  });

  // Size the image once — every column with its worst-case alignment pad,
  // plus a footer allowance — so assembly copies each byte exactly once.
  std::size_t capacity = kHeaderSize + kFooterAllowance;
  for (const EncodedColumn& col : topology) capacity += col.bytes.size() + kColumnAlignment;
  for (const ShardEncoding& shard : shards) {
    capacity += shard.bytes.size() + kColumnAlignment + shard.blocks.size() * sizeof(BlockRecord);
  }
  std::string out;
  out.reserve(capacity);
  out.append(kHeaderSize, '\0');  // patched last

  std::vector<ColumnRecord> columns;
  for (const EncodedColumn& col : topology) {
    pad_to_alignment(out);
    ColumnRecord rec = col.record;
    rec.offset = out.size();
    out.append(col.bytes);
    columns.push_back(rec);
  }

  std::vector<BlockRecord> blocks;
  for (std::size_t s = 0; s < kClassCount; ++s) {
    pad_to_alignment(out);
    const std::uint64_t base = out.size();
    out.append(shards[s].bytes);
    for (ColumnRecord col : shards[s].columns) {
      col.offset += base;
      columns.push_back(col);
    }
    blocks.insert(blocks.end(), shards[s].blocks.begin(), shards[s].blocks.end());
  }

  pad_to_alignment(out);
  const std::uint64_t footer_offset = out.size();
  append_meta(out, contents.meta);
  append_exposure(out, exposure.table());
  append_directory(out, columns);
  append_block_index(out, blocks);
  append_u32(out, crc32(out.data() + footer_offset, out.size() - footer_offset));
  const std::uint64_t footer_size = out.size() - footer_offset;

  Header header;
  header.file_size = out.size();
  header.footer_offset = footer_offset;
  header.footer_size = footer_size;
  header.seed = contents.seed;
  header.scale = contents.scale;
  header.horizon_seconds = horizon;
  header.event_count = sorted.size();
  // The last part's bases plus its own rows are the fleet's totals.
  const StorePart& last = pieces.back();
  header.system_count = last.ids.system + last.inventory->systems.size();
  header.shelf_count = last.ids.shelf + last.inventory->shelves.size();
  header.disk_count =
      last.ids.replacement + (last.inventory->disks.size() - last.ids.disks_initial);
  header.raid_group_count = last.ids.raid_group + last.inventory->raid_groups.size();
  std::string head;
  head.reserve(kHeaderSize);
  append_header(head, header);
  out.replace(0, kHeaderSize, head);

  STORSIM_OBS_COUNTER(c_bytes, "store.write.bytes",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_bytes, out.size());
  STORSIM_OBS_COUNTER(c_cols, "store.write.columns",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_cols, columns.size());

  *image = std::move(out);
  return Error{};
}

Error write_store_file(const std::string& path, const StoreContents& contents) {
  std::string image;
  if (Error err = build_store_image(contents, &image); !err.ok()) return err;

  return publish_file(path, image);
}

}  // namespace storsubsim::store
