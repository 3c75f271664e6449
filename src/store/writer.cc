#include "store/writer.h"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "obs/obs.h"
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

char system_family(const log::Inventory& inv, model::SystemId system) {
  return inv.systems[system.value()].disk_model.family;
}

/// Encodes the seven event columns of one class shard. Events are already in
/// canonical (time, disk, type) order.
ShardEncoding encode_event_shard(const log::Inventory& inv, std::uint8_t shard,
                                 std::span<const log::ClassifiedFailure> events) {
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
  for (const auto& e : events) append_u8(out.bytes, static_cast<std::uint8_t>(e.type));
  finish_column(out.bytes, begin, shard, ColumnId::kEventType, Encoding::kRaw, rows,
                out.columns);

  pad_to_alignment(out.bytes);
  begin = out.bytes.size();
  for (const auto& e : events) {
    append_u8(out.bytes, static_cast<std::uint8_t>(system_family(inv, e.system)));
  }
  finish_column(out.bytes, begin, shard, ColumnId::kEventFamily, Encoding::kRaw, rows,
                out.columns);

  pad_to_alignment(out.bytes);
  begin = out.bytes.size();
  for (const auto& e : events) append_u32(out.bytes, e.disk.value());
  finish_column(out.bytes, begin, shard, ColumnId::kEventDisk, Encoding::kRaw, rows,
                out.columns);

  pad_to_alignment(out.bytes);
  begin = out.bytes.size();
  for (const auto& e : events) append_u32(out.bytes, e.system.value());
  finish_column(out.bytes, begin, shard, ColumnId::kEventSystem, Encoding::kRaw, rows,
                out.columns);

  pad_to_alignment(out.bytes);
  begin = out.bytes.size();
  for (const auto& e : events) {
    append_u32(out.bytes, inv.disks[e.disk.value()].shelf.value());
  }
  finish_column(out.bytes, begin, shard, ColumnId::kEventShelf, Encoding::kRaw, rows,
                out.columns);

  pad_to_alignment(out.bytes);
  begin = out.bytes.size();
  for (const auto& e : events) {
    append_u32(out.bytes, inv.disks[e.disk.value()].raid_group.value());
  }
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

/// One topology column to encode: `encode` appends its `rows` rows to an
/// empty buffer.
struct TopologyColumn {
  ColumnId id = ColumnId::kSysClass;
  std::uint64_t rows = 0;
  std::function<void(std::string&)> encode;
};

/// A column whose row i is what `append_row(out, i)` appends.
template <typename AppendFn>
TopologyColumn column(ColumnId id, std::uint64_t rows, AppendFn append_row) {
  return {id, rows, [rows, append_row](std::string& out) {
            for (std::uint64_t i = 0; i < rows; ++i) append_row(out, i);
          }};
}

/// An encoded column and its directory entry (offset 0 until assembly).
struct EncodedColumn {
  std::string bytes;
  ColumnRecord record;
};

/// Encodes and CRCs the topology columns through the shared pool, one buffer
/// per column, in directory order; assembly appends them in that order, so
/// the image does not depend on scheduling.
std::vector<EncodedColumn> encode_topology(const log::Inventory& inv) {
  const auto& systems = inv.systems;
  const auto n_sys = static_cast<std::uint64_t>(systems.size());
  const auto& shelves = inv.shelves;
  const auto n_shelf = static_cast<std::uint64_t>(shelves.size());
  const auto& disks = inv.disks;
  const auto n_disk = static_cast<std::uint64_t>(disks.size());
  const auto& groups = inv.raid_groups;
  const auto n_rg = static_cast<std::uint64_t>(groups.size());
  const std::vector<TopologyColumn> spec = {
    column(ColumnId::kSysClass, n_sys, [&](std::string& out, std::uint64_t i) {
      append_u8(out, static_cast<std::uint8_t>(systems[i].cls));
    }),
    column(ColumnId::kSysPaths, n_sys, [&](std::string& out, std::uint64_t i) {
      append_u8(out, static_cast<std::uint8_t>(systems[i].paths));
    }),
    column(ColumnId::kSysDiskFamily, n_sys, [&](std::string& out, std::uint64_t i) {
      append_u8(out, static_cast<std::uint8_t>(systems[i].disk_model.family));
    }),
    column(ColumnId::kSysDiskCap, n_sys, [&](std::string& out, std::uint64_t i) {
      append_u32(out, static_cast<std::uint32_t>(systems[i].disk_model.capacity_index));
    }),
    column(ColumnId::kSysShelfModel, n_sys, [&](std::string& out, std::uint64_t i) {
      append_u8(out, static_cast<std::uint8_t>(systems[i].shelf_model.letter));
    }),
    column(ColumnId::kSysDeploy, n_sys, [&](std::string& out, std::uint64_t i) {
      append_f64(out, systems[i].deploy_time);
    }),
    column(ColumnId::kSysCohort, n_sys, [&](std::string& out, std::uint64_t i) {
      append_u32(out, systems[i].cohort);
    }),
    column(ColumnId::kShelfSystem, n_shelf, [&](std::string& out, std::uint64_t i) {
      append_u32(out, shelves[i].system.value());
    }),
    column(ColumnId::kShelfModel, n_shelf, [&](std::string& out, std::uint64_t i) {
      append_u8(out, static_cast<std::uint8_t>(shelves[i].model.letter));
    }),
    column(ColumnId::kDiskFamily, n_disk, [&](std::string& out, std::uint64_t i) {
      append_u8(out, static_cast<std::uint8_t>(disks[i].model.family));
    }),
    column(ColumnId::kDiskCap, n_disk, [&](std::string& out, std::uint64_t i) {
      append_u32(out, static_cast<std::uint32_t>(disks[i].model.capacity_index));
    }),
    column(ColumnId::kDiskSystem, n_disk, [&](std::string& out, std::uint64_t i) {
      append_u32(out, disks[i].system.value());
    }),
    column(ColumnId::kDiskShelf, n_disk, [&](std::string& out, std::uint64_t i) {
      append_u32(out, disks[i].shelf.value());
    }),
    column(ColumnId::kDiskRaidGroup, n_disk, [&](std::string& out, std::uint64_t i) {
      append_u32(out, disks[i].raid_group.value());
    }),
    column(ColumnId::kDiskSlot, n_disk, [&](std::string& out, std::uint64_t i) {
      append_u32(out, disks[i].slot);
    }),
    column(ColumnId::kDiskInstall, n_disk, [&](std::string& out, std::uint64_t i) {
      append_f64(out, disks[i].install_time);
    }),
    column(ColumnId::kDiskRemove, n_disk, [&](std::string& out, std::uint64_t i) {
      append_f64(out, disks[i].remove_time);
    }),
    column(ColumnId::kRgSystem, n_rg, [&](std::string& out, std::uint64_t i) {
      append_u32(out, groups[i].system.value());
    }),
    column(ColumnId::kRgType, n_rg, [&](std::string& out, std::uint64_t i) {
      append_u8(out, static_cast<std::uint8_t>(groups[i].type));
    }),
    column(ColumnId::kRgMembers, n_rg, [&](std::string& out, std::uint64_t i) {
      append_u32(out, groups[i].member_count);
    }),
    column(ColumnId::kRgSpan, n_rg, [&](std::string& out, std::uint64_t i) {
      append_u32(out, groups[i].shelf_span);
    }),
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

/// Exposure table, one sweep over disks in id order with one accumulator
/// per cohort: each sum sees the same addends in the same order as its own
/// sweep would — core::Source::disk_years over the matching cohort — so
/// the FP rounding, and the bytes, are the same.
void append_exposure(std::string& out, const log::Inventory& inv) {
  // Family cohorts match Filter::disk_family: the *system's* disk family
  // selects the cohort, and every disk of a selected system accrues. The
  // maps hold the accumulators in output order; each system keeps pointers
  // to its two (map nodes never move).
  std::map<char, double> families;
  std::map<std::pair<std::uint8_t, char>, double> class_families;
  std::array<std::uint64_t, kClassCount> class_systems{};
  struct Cohorts {
    std::size_t cls = 0;
    double* family = nullptr;
    double* class_family = nullptr;
  };
  std::vector<Cohorts> cohorts;
  cohorts.reserve(inv.systems.size());
  for (const auto& sys : inv.systems) {
    const auto cls = static_cast<std::uint8_t>(model::index_of(sys.cls));
    const char family = sys.disk_model.family;
    cohorts.push_back({cls, &families[family], &class_families[{cls, family}]});
    ++class_systems[cls];
  }

  double total = 0.0;
  std::array<double, kClassCount> class_years{};
  for (const auto& d : inv.disks) {
    const double years = inv.disk_exposure_years(d);
    const Cohorts& of = cohorts[d.system.value()];
    total += years;
    class_years[of.cls] += years;
    *of.family += years;
    *of.class_family += years;
  }

  append_f64(out, total);
  for (const double years : class_years) append_f64(out, years);
  for (const std::uint64_t n : class_systems) append_u64(out, n);
  append_u32(out, static_cast<std::uint32_t>(families.size()));
  for (const auto& [family, years] : families) {
    append_u8(out, static_cast<std::uint8_t>(family));
    append_f64(out, years);
  }
  append_u32(out, static_cast<std::uint32_t>(class_families.size()));
  for (const auto& [key, years] : class_families) {
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

Error build_store_image(const StoreContents& contents, std::string* image) {
  obs::Span span("store.build_image");
  if (contents.inventory == nullptr) {
    return make_error(ErrorCode::kBadValue, "writer: null inventory");
  }
  const log::Inventory& inv = *contents.inventory;

  // Validate references up front so encoding can index without checks.
  for (const auto& e : contents.events) {
    if (e.disk.value() >= inv.disks.size()) {
      return make_error(ErrorCode::kBadValue, "writer: event references unknown disk");
    }
    if (e.system.value() >= inv.systems.size()) {
      return make_error(ErrorCode::kBadValue, "writer: event references unknown system");
    }
  }

  // Canonical order: the classifier's global (time, disk, type) order. The
  // writer re-sorts unconditionally so the image is a pure function of the
  // event *set*, not of the order the caller happened to hold it in.
  std::vector<log::ClassifiedFailure> sorted(contents.events.begin(),
                                             contents.events.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const log::ClassifiedFailure& a, const log::ClassifiedFailure& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.disk != b.disk) return a.disk < b.disk;
              return static_cast<int>(a.type) < static_cast<int>(b.type);
            });

  // Stable partition into one span per system class (partition preserves the
  // canonical order within each class).
  std::array<std::vector<log::ClassifiedFailure>, kClassCount> per_class;
  for (const auto& e : sorted) {
    per_class[model::index_of(inv.systems[e.system.value()].cls)].push_back(e);
  }

  // Encode the four class shards through the shared pool. Workers touch
  // disjoint slots of `shards`; the merge below walks class order, so the
  // image is independent of scheduling.
  std::array<ShardEncoding, kClassCount> shards;
  util::parallel_for(kClassCount, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      shards[s] = encode_event_shard(inv, static_cast<std::uint8_t>(s), per_class[s]);
    }
  });

  const std::vector<EncodedColumn> topology = encode_topology(inv);

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
  append_exposure(out, inv);
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
  header.horizon_seconds = inv.horizon_seconds;
  header.event_count = sorted.size();
  header.system_count = inv.systems.size();
  header.shelf_count = inv.shelves.size();
  header.disk_count = inv.disks.size();
  header.raid_group_count = inv.raid_groups.size();
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
