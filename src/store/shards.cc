#include "store/shards.h"

#include <charconv>
#include <filesystem>
#include <system_error>
#include <utility>

#include "model/enums.h"
#include "obs/obs.h"
#include "store/mmap_file.h"

namespace storsubsim::store {

namespace {

// --- allocation-free-ish text rendering -------------------------------------
// The manifest is tiny (a few KB), but src/store is an alloc-hotpath scope:
// numbers are rendered with std::to_chars into stack buffers, never through
// std::to_string or stream objects.

void append_dec(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

/// Fixed-width 16-digit hex of a u64 bit pattern, "0x" prefixed.
void append_hex64(std::string& out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  out.append("0x");
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kDigits[(v >> static_cast<unsigned>(shift)) & 0xfu]);
  }
}

void append_hex_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  append_hex64(out, bits);
}

std::array<std::uint64_t, 15> meta_values(const StoreMeta& meta) {
  return {meta.sim_events_by_type[0], meta.sim_events_by_type[1],
          meta.sim_events_by_type[2], meta.sim_events_by_type[3],
          meta.sim_replacements,      meta.sim_triggered_disk_failures,
          meta.sim_shelf_faults,      meta.sim_path_faults,
          meta.sim_masked_path_faults, meta.log_lines_written,
          meta.log_lines_parsed,      meta.raid_records,
          meta.failures_classified,   meta.duplicates_dropped,
          meta.missing_disk_dropped};
}

void set_meta_values(StoreMeta& meta, const std::array<std::uint64_t, 15>& v) {
  meta.sim_events_by_type = {v[0], v[1], v[2], v[3]};
  meta.sim_replacements = v[4];
  meta.sim_triggered_disk_failures = v[5];
  meta.sim_shelf_faults = v[6];
  meta.sim_path_faults = v[7];
  meta.sim_masked_path_faults = v[8];
  meta.log_lines_written = v[9];
  meta.log_lines_parsed = v[10];
  meta.raid_records = v[11];
  meta.failures_classified = v[12];
  meta.duplicates_dropped = v[13];
  meta.missing_disk_dropped = v[14];
}

// --- line/token parsing ------------------------------------------------------

struct LineCursor {
  std::string_view text;
  std::size_t pos = 0;

  /// Byte offset of the next unread line (error anchoring).
  std::uint64_t offset() const noexcept { return pos; }

  bool next(std::string_view* line) {
    if (pos >= text.size()) return false;
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      *line = text.substr(pos);
      pos = text.size();
    } else {
      *line = text.substr(pos, nl - pos);
      pos = nl + 1;
    }
    return true;
  }
};

/// Pops the next space-separated token off `line`.
bool take_token(std::string_view& line, std::string_view* tok) {
  while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
  if (line.empty()) return false;
  const std::size_t sp = line.find(' ');
  if (sp == std::string_view::npos) {
    *tok = line;
    line = {};
  } else {
    *tok = line.substr(0, sp);
    line.remove_prefix(sp + 1);
  }
  return true;
}

bool parse_u64(std::string_view tok, std::uint64_t* v) {
  if (tok.empty()) return false;
  const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), *v, 10);
  return res.ec == std::errc{} && res.ptr == tok.data() + tok.size();
}

bool parse_hex64(std::string_view tok, std::uint64_t* v) {
  if (tok.size() < 3 || tok[0] != '0' || tok[1] != 'x') return false;
  tok.remove_prefix(2);
  const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), *v, 16);
  return res.ec == std::errc{} && res.ptr == tok.data() + tok.size();
}

bool parse_hex_f64(std::string_view tok, double* v) {
  std::uint64_t bits = 0;
  if (!parse_hex64(tok, &bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

[[nodiscard]] Error manifest_error(std::string_view detail, std::uint64_t offset = 0) {
  std::string msg("MANIFEST: ");
  msg.append(detail);
  return make_error(ErrorCode::kBadHeader, msg, offset);
}

/// Reads one "key value..." line and hands back the value part.
[[nodiscard]] Error expect_line(LineCursor& cursor, std::string_view key, std::string_view* rest) {
  const std::uint64_t at = cursor.offset();
  std::string_view line;
  if (!cursor.next(&line)) {
    std::string msg("truncated before '");
    msg.append(key).append("'");
    return make_error(ErrorCode::kTruncated, std::string("MANIFEST: ").append(msg), at);
  }
  std::string_view tok;
  std::string_view tail = line;
  if (!take_token(tail, &tok) || tok != key) {
    std::string msg("expected '");
    msg.append(key).append("' line");
    return manifest_error(msg, at);
  }
  *rest = tail;
  return Error{};
}

[[nodiscard]] Error expect_u64(LineCursor& cursor, std::string_view key, std::uint64_t* v) {
  std::string_view rest;
  if (Error err = expect_line(cursor, key, &rest); !err.ok()) return err;
  std::string_view tok;
  if (!take_token(rest, &tok) || !parse_u64(tok, v)) {
    std::string msg("bad integer on '");
    msg.append(key).append("' line");
    return manifest_error(msg, cursor.offset());
  }
  return Error{};
}

[[nodiscard]] Error expect_hex_f64(LineCursor& cursor, std::string_view key, double* v) {
  std::string_view rest;
  if (Error err = expect_line(cursor, key, &rest); !err.ok()) return err;
  std::string_view tok;
  if (!take_token(rest, &tok) || !parse_hex_f64(tok, v)) {
    std::string msg("bad hex double on '");
    msg.append(key).append("' line");
    return manifest_error(msg, cursor.offset());
  }
  return Error{};
}

// --- shard checks ------------------------------------------------------------

/// CRC32 of a shard's re-rendered header: the MANIFEST's per-shard
/// fingerprint (byte-equal to the on-disk header of every written shard).
std::uint32_t header_crc(const Header& header) {
  std::string bytes;
  append_header(bytes, header);
  return crc32(bytes.data(), bytes.size());
}

/// A shard file must be exactly what its MANIFEST entry recorded: the same
/// length, the same header CRC, and header counts that agree with the
/// entry's. open() applies it to every shard up front and open_shard() to
/// every lazy (re)open, so a shard replaced after open() — a rebuild in
/// place — is a typed error, never a silent mix of two generations.
[[nodiscard]] Error check_shard(const ShardInfo& info, std::uint64_t seed,
                                const Header& header, std::uint64_t file_size) {
  if (file_size != info.file_size) {
    return make_error(ErrorCode::kTruncated, "shard size differs from MANIFEST");
  }
  if (header_crc(header) != info.header_crc) {
    return make_error(ErrorCode::kChecksum, "shard header crc differs from MANIFEST");
  }
  if (header.system_count != info.systems || header.shelf_count != info.shelves ||
      header.disk_count != info.disks_total || header.raid_group_count != info.raid_groups ||
      header.event_count != info.events || header.seed != seed) {
    return make_error(ErrorCode::kBadValue, "shard header disagrees with MANIFEST");
  }
  return Error{};
}

/// Prefixes a shard-level error with the shard's path, keeping the code and
/// offset: a failure over a directory of dozens of shards names its file.
[[nodiscard]] Error name_shard(const std::string& path, const Error& err) {
  std::string detail("shard ");
  detail.append(path).append(": ").append(err.detail);
  return make_error(err.code, detail, err.offset);
}

void sum_meta(StoreMeta& into, const StoreMeta& add) {
  const auto a = meta_values(into);
  const auto b = meta_values(add);
  std::array<std::uint64_t, 15> sum{};
  for (std::size_t i = 0; i < sum.size(); ++i) sum[i] = a[i] + b[i];
  set_meta_values(into, sum);
}

/// Fills every shard's `ids` from its counts and returns the totals.
IdBases derive_ids(std::vector<ShardInfo>& shards) {
  std::vector<PieceCounts> counts;
  counts.reserve(shards.size());
  for (const ShardInfo& s : shards) {
    counts.push_back(
        PieceCounts{s.systems, s.shelves, s.raid_groups, s.disks_initial, s.disks_total});
  }
  const std::vector<IdBases> bases = id_bases(counts);
  for (std::size_t i = 0; i < shards.size(); ++i) shards[i].ids = bases[i];
  return bases.back();
}

std::string shard_path(const std::string& dir, const std::string& file) {
  std::string path(dir);
  if (!path.empty() && path.back() != '/') path.push_back('/');
  path.append(file);
  return path;
}

}  // namespace

std::string render_manifest(const ShardManifest& manifest) {
  std::string out;
  out.reserve(1024 + manifest.shards.size() * 160);
  out.append(kManifestMagic).append("\n");
  out.append("version ");
  append_dec(out, manifest.version);
  out.append("\nseed ");
  append_dec(out, manifest.seed);
  out.append("\nscale ");
  append_hex_f64(out, manifest.scale);
  out.append("\nhorizon_seconds ");
  append_hex_f64(out, manifest.horizon_seconds);
  out.append("\nsystems ");
  append_dec(out, manifest.systems);
  out.append("\nshelves ");
  append_dec(out, manifest.shelves);
  out.append("\ndisks_initial ");
  append_dec(out, manifest.disks_initial);
  out.append("\ndisks_total ");
  append_dec(out, manifest.disks_total);
  out.append("\nraid_groups ");
  append_dec(out, manifest.raid_groups);
  out.append("\nevents ");
  append_dec(out, manifest.events);
  out.append("\npeak_rss_bytes ");
  append_dec(out, manifest.peak_rss_bytes);
  out.append("\nmeta");
  for (const auto v : meta_values(manifest.meta)) {
    out.push_back(' ');
    append_dec(out, v);
  }
  out.append("\nexposure_total ");
  append_hex_f64(out, manifest.exposure.total_disk_years);
  out.append("\nexposure_class");
  for (const auto v : manifest.exposure.class_disk_years) {
    out.push_back(' ');
    append_hex_f64(out, v);
  }
  out.append("\nexposure_class_systems");
  for (const auto v : manifest.exposure.class_system_count) {
    out.push_back(' ');
    append_dec(out, v);
  }
  out.append("\nexposure_families ");
  append_dec(out, manifest.exposure.family_disk_years.size());
  for (const auto& [family, years] : manifest.exposure.family_disk_years) {
    out.append("\nfamily ");
    append_dec(out, static_cast<std::uint8_t>(family));
    out.push_back(' ');
    append_hex_f64(out, years);
  }
  out.append("\nexposure_class_families ");
  append_dec(out, manifest.exposure.class_family_disk_years.size());
  for (const auto& [key, years] : manifest.exposure.class_family_disk_years) {
    out.append("\nclass_family ");
    append_dec(out, key.first);
    out.push_back(' ');
    append_dec(out, static_cast<std::uint8_t>(key.second));
    out.push_back(' ');
    append_hex_f64(out, years);
  }
  out.append("\nshards ");
  append_dec(out, manifest.shards.size());
  for (const auto& s : manifest.shards) {
    out.append("\nshard ");
    out.append(s.file);
    out.push_back(' ');
    append_dec(out, s.file_size);
    out.push_back(' ');
    append_hex64(out, s.header_crc);
    out.push_back(' ');
    append_dec(out, s.sys_begin);
    out.push_back(' ');
    append_dec(out, s.sys_end);
    out.push_back(' ');
    append_dec(out, s.systems);
    out.push_back(' ');
    append_dec(out, s.shelves);
    out.push_back(' ');
    append_dec(out, s.raid_groups);
    out.push_back(' ');
    append_dec(out, s.disks_initial);
    out.push_back(' ');
    append_dec(out, s.disks_total);
    out.push_back(' ');
    append_dec(out, s.events);
  }
  out.push_back('\n');
  const std::uint32_t crc = crc32(out.data(), out.size());
  out.append("crc ");
  append_hex64(out, crc);
  out.push_back('\n');
  return out;
}

Error parse_manifest(std::string_view text, ShardManifest* out) {
  // The trailing line is "crc 0x<16 hex>\n" over everything before it.
  const std::string_view crc_key("crc 0x");
  const std::size_t crc_at = text.rfind(crc_key);
  if (crc_at == std::string_view::npos || crc_at == 0) {
    return make_error(ErrorCode::kTruncated, "MANIFEST: missing trailing crc line");
  }
  {
    std::string_view crc_line = text.substr(crc_at);
    std::string_view rest = crc_line;
    std::string_view tok;
    if (!take_token(rest, &tok)) {
      return manifest_error("malformed crc line", crc_at);
    }
    if (!take_token(rest, &tok)) {
      return manifest_error("malformed crc line", crc_at);
    }
    while (!tok.empty() && tok.back() == '\n') tok.remove_suffix(1);
    std::uint64_t stored = 0;
    if (!parse_hex64(tok, &stored)) {
      return manifest_error("malformed crc line", crc_at);
    }
    const std::uint32_t actual = crc32(text.data(), crc_at);
    if (static_cast<std::uint32_t>(stored) != actual) {
      return make_error(ErrorCode::kChecksum, "MANIFEST: crc mismatch", crc_at);
    }
  }

  ShardManifest m;
  LineCursor cursor{text.substr(0, crc_at)};
  std::string_view line;
  if (!cursor.next(&line) || line != kManifestMagic) {
    return make_error(ErrorCode::kBadMagic, "MANIFEST: bad magic line");
  }
  std::uint64_t version = 0;
  if (Error err = expect_u64(cursor, "version", &version); !err.ok()) return err;
  if (version != kManifestVersion) {
    return make_error(ErrorCode::kBadVersion, "MANIFEST: unsupported version");
  }
  m.version = static_cast<std::uint32_t>(version);
  if (Error err = expect_u64(cursor, "seed", &m.seed); !err.ok()) return err;
  if (Error err = expect_hex_f64(cursor, "scale", &m.scale); !err.ok()) return err;
  if (Error err = expect_hex_f64(cursor, "horizon_seconds", &m.horizon_seconds); !err.ok()) {
    return err;
  }
  if (Error err = expect_u64(cursor, "systems", &m.systems); !err.ok()) return err;
  if (Error err = expect_u64(cursor, "shelves", &m.shelves); !err.ok()) return err;
  if (Error err = expect_u64(cursor, "disks_initial", &m.disks_initial); !err.ok()) return err;
  if (Error err = expect_u64(cursor, "disks_total", &m.disks_total); !err.ok()) return err;
  if (Error err = expect_u64(cursor, "raid_groups", &m.raid_groups); !err.ok()) return err;
  if (Error err = expect_u64(cursor, "events", &m.events); !err.ok()) return err;
  if (Error err = expect_u64(cursor, "peak_rss_bytes", &m.peak_rss_bytes); !err.ok()) {
    return err;
  }

  {
    std::string_view rest;
    if (Error err = expect_line(cursor, "meta", &rest); !err.ok()) return err;
    std::array<std::uint64_t, 15> values{};
    for (auto& v : values) {
      std::string_view tok;
      if (!take_token(rest, &tok) || !parse_u64(tok, &v)) {
        return manifest_error("meta line needs 15 integers", cursor.offset());
      }
    }
    set_meta_values(m.meta, values);
  }

  if (Error err = expect_hex_f64(cursor, "exposure_total", &m.exposure.total_disk_years);
      !err.ok()) {
    return err;
  }
  {
    std::string_view rest;
    if (Error err = expect_line(cursor, "exposure_class", &rest); !err.ok()) return err;
    for (auto& v : m.exposure.class_disk_years) {
      std::string_view tok;
      if (!take_token(rest, &tok) || !parse_hex_f64(tok, &v)) {
        return manifest_error("exposure_class needs 4 hex doubles", cursor.offset());
      }
    }
  }
  {
    std::string_view rest;
    if (Error err = expect_line(cursor, "exposure_class_systems", &rest); !err.ok()) {
      return err;
    }
    for (auto& v : m.exposure.class_system_count) {
      std::string_view tok;
      if (!take_token(rest, &tok) || !parse_u64(tok, &v)) {
        return manifest_error("exposure_class_systems needs 4 integers", cursor.offset());
      }
    }
  }

  std::uint64_t n_families = 0;
  if (Error err = expect_u64(cursor, "exposure_families", &n_families); !err.ok()) return err;
  for (std::uint64_t i = 0; i < n_families; ++i) {
    std::string_view rest;
    if (Error err = expect_line(cursor, "family", &rest); !err.ok()) return err;
    std::string_view t1;
    std::string_view t2;
    std::uint64_t fam = 0;
    double years = 0.0;
    if (!take_token(rest, &t1) || !take_token(rest, &t2) || !parse_u64(t1, &fam) ||
        fam > 0xff || !parse_hex_f64(t2, &years)) {
      return manifest_error("malformed family line", cursor.offset());
    }
    m.exposure.family_disk_years[static_cast<char>(fam)] = years;
  }
  if (m.exposure.family_disk_years.size() != n_families) {
    return make_error(ErrorCode::kBadValue, "MANIFEST: duplicate family entries");
  }

  std::uint64_t n_class_families = 0;
  if (Error err = expect_u64(cursor, "exposure_class_families", &n_class_families);
      !err.ok()) {
    return err;
  }
  for (std::uint64_t i = 0; i < n_class_families; ++i) {
    std::string_view rest;
    if (Error err = expect_line(cursor, "class_family", &rest); !err.ok()) return err;
    std::string_view t1;
    std::string_view t2;
    std::string_view t3;
    std::uint64_t cls = 0;
    std::uint64_t fam = 0;
    double years = 0.0;
    if (!take_token(rest, &t1) || !take_token(rest, &t2) || !take_token(rest, &t3) ||
        !parse_u64(t1, &cls) || cls >= kClassCount || !parse_u64(t2, &fam) || fam > 0xff ||
        !parse_hex_f64(t3, &years)) {
      return manifest_error("malformed class_family line", cursor.offset());
    }
    m.exposure.class_family_disk_years[{static_cast<std::uint8_t>(cls),
                                        static_cast<char>(fam)}] = years;
  }
  if (m.exposure.class_family_disk_years.size() != n_class_families) {
    return make_error(ErrorCode::kBadValue, "MANIFEST: duplicate class_family entries");
  }

  std::uint64_t n_shards = 0;
  if (Error err = expect_u64(cursor, "shards", &n_shards); !err.ok()) return err;
  if (n_shards == 0) {
    return make_error(ErrorCode::kBadValue, "MANIFEST: zero shards");
  }
  m.shards.reserve(n_shards);
  for (std::uint64_t i = 0; i < n_shards; ++i) {
    std::string_view rest;
    if (Error err = expect_line(cursor, "shard", &rest); !err.ok()) return err;
    ShardInfo s;
    std::string_view tok;
    if (!take_token(rest, &tok) || tok.empty() ||
        tok.find('/') != std::string_view::npos) {
      return manifest_error("malformed shard file name", cursor.offset());
    }
    s.file.assign(tok);
    std::uint64_t crc = 0;
    std::array<std::uint64_t*, 8> fields = {&s.sys_begin,     &s.sys_end, &s.systems,
                                            &s.shelves,       &s.raid_groups,
                                            &s.disks_initial, &s.disks_total, &s.events};
    if (!take_token(rest, &tok) || !parse_u64(tok, &s.file_size)) {
      return manifest_error("malformed shard line", cursor.offset());
    }
    if (!take_token(rest, &tok) || !parse_hex64(tok, &crc) || crc > 0xffffffffu) {
      return manifest_error("malformed shard line", cursor.offset());
    }
    s.header_crc = static_cast<std::uint32_t>(crc);
    for (auto* field : fields) {
      if (!take_token(rest, &tok) || !parse_u64(tok, field)) {
        return manifest_error("malformed shard line", cursor.offset());
      }
    }
    m.shards.push_back(std::move(s));
  }

  // Cross-check the ranges and the totals, then derive the bases.
  std::uint64_t sys_begin = 0;
  std::uint64_t events = 0;
  for (const auto& s : m.shards) {
    if (s.disks_total < s.disks_initial || s.sys_end < s.sys_begin ||
        s.sys_end - s.sys_begin != s.systems || s.sys_begin != sys_begin) {
      return make_error(ErrorCode::kBadValue, "MANIFEST: inconsistent shard ranges");
    }
    sys_begin = s.sys_end;
    events += s.events;
  }
  const IdBases total = derive_ids(m.shards);
  if (total.system != m.systems || total.shelf != m.shelves ||
      total.disk != m.disks_initial || total.replacement != m.disks_total ||
      total.raid_group != m.raid_groups || events != m.events) {
    return make_error(ErrorCode::kBadValue, "MANIFEST: shard counts do not sum to totals");
  }

  *out = std::move(m);
  return Error{};
}

Error write_manifest_file(const std::string& dir, const ShardManifest& manifest) {
  return publish_file(shard_path(dir, std::string(kManifestFileName)),
                      render_manifest(manifest));
}

Error merge_shard_tables(const std::string& dir, std::vector<ShardInfo>* shards,
                         double horizon_seconds, ExposureTable* exposure,
                         StoreMeta* meta) {
  obs::Span span("store.merge_tables");

  ExposureSweep sweep(horizon_seconds);
  StoreMeta merged{};
  /// Replacement rows deferred to the second pass so the sweep sees the
  /// monolithic disk order.
  struct Replacement {
    std::uint64_t system;
    double install;
    double remove;
  };
  std::vector<Replacement> replacements;

  std::uint64_t system_base = 0;
  for (auto& info : *shards) {
    const std::string path = shard_path(dir, info.file);
    EventStore store;
    if (Error err = store.open(path); !err.ok()) return err;
    info.file_size = store.header().file_size;
    info.header_crc = header_crc(store.header());
    sum_meta(merged, store.meta());

    const auto sys_class = store.topology(ColumnId::kSysClass)->as_u8();
    const auto sys_family = store.topology(ColumnId::kSysDiskFamily)->as_u8();
    const auto disk_system = store.topology(ColumnId::kDiskSystem)->as_u32();
    const auto disk_install = store.topology(ColumnId::kDiskInstall)->as_f64();
    const auto disk_remove = store.topology(ColumnId::kDiskRemove)->as_f64();
    for (std::size_t i = 0; i < sys_class.size(); ++i) {
      sweep.add_system(static_cast<model::SystemClass>(sys_class[i]),
                       static_cast<char>(sys_family[i]));
    }
    if (info.disks_initial > disk_system.size()) {
      return make_error(ErrorCode::kBadValue,
                        std::string("initial disk count exceeds shard rows in ")
                            .append(info.file));
    }
    for (std::size_t i = 0; i < disk_system.size(); ++i) {
      const std::uint64_t system = system_base + disk_system[i];
      if (i < info.disks_initial) {
        sweep.add_disk(system, disk_install[i], disk_remove[i]);
      } else {
        replacements.push_back(Replacement{system, disk_install[i], disk_remove[i]});
      }
    }
    system_base += sys_class.size();
  }
  for (const auto& r : replacements) sweep.add_disk(r.system, r.install, r.remove);

  *exposure = sweep.table();
  *meta = merged;
  return Error{};
}

StoreShape store_shape(const std::string& path) {
  const auto starts_with = [](const std::string& file, std::string_view magic) {
    MmapFile f;
    return f.open(file).ok() && f.view().starts_with(magic);
  };
  // Only a regular file or a directory can hold a store. Anything else (a
  // FIFO, /dev/stdin) is never opened, so sniffing it drains nothing.
  std::error_code ec;
  const auto type = std::filesystem::status(path, ec).type();
  if (type == std::filesystem::file_type::regular &&
      starts_with(path, std::string_view(kMagic.data(), kMagic.size()))) {
    return StoreShape::kFile;
  }
  if (type == std::filesystem::file_type::directory &&
      starts_with(shard_path(path, std::string(kManifestFileName)), kManifestMagic)) {
    return StoreShape::kShardDir;
  }
  return StoreShape::kNone;
}

Error ShardStore::open(const std::string& path) {
  obs::Span span("store.shards.open");
  switch (store_shape(path)) {
    case StoreShape::kFile: return open_file(path);
    case StoreShape::kShardDir: return open_directory(path);
    case StoreShape::kNone: break;
  }
  std::string detail("input ");
  detail.append(path).append(" is neither a STORCOL1 store nor a shard directory");
  return make_error(ErrorCode::kBadMagic, detail, 0);
}

Error ShardStore::open_file(const std::string& path) {
  // One mmap + full validation; the file then serves as shard 0 for the
  // life of the store (release_shard/open_shard remap it by path).
  auto store = std::make_unique<EventStore>();
  if (Error err = store->open(path); !err.ok()) return err;
  const Header& h = store->header();

  const std::size_t slash = path.rfind('/');
  dir_ = slash == std::string::npos ? std::string(".") : path.substr(0, slash + 1);
  ShardInfo info;
  info.file = slash == std::string::npos ? path : path.substr(slash + 1);
  info.file_size = h.file_size;
  info.header_crc = header_crc(h);
  info.sys_end = info.systems = h.system_count;
  info.shelves = h.shelf_count;
  info.raid_groups = h.raid_group_count;
  // Replacement disks sit after the initial ones in one file, so calling
  // every record initial keeps the global disk id equal to the local one.
  info.disks_initial = info.disks_total = h.disk_count;
  info.events = h.event_count;

  manifest_ = ShardManifest{};
  manifest_.seed = h.seed;
  manifest_.scale = h.scale;
  manifest_.horizon_seconds = h.horizon_seconds;
  manifest_.systems = h.system_count;
  manifest_.shelves = h.shelf_count;
  manifest_.disks_initial = manifest_.disks_total = h.disk_count;
  manifest_.raid_groups = h.raid_group_count;
  manifest_.events = h.event_count;
  manifest_.meta = store->meta();
  manifest_.exposure = store->exposure();
  manifest_.shards.push_back(std::move(info));
  derive_ids(manifest_.shards);

  shards_.clear();
  shards_.push_back(std::move(store));
  return Error{};
}

Error ShardStore::open_directory(const std::string& dir) {
  dir_ = dir;
  MmapFile text;
  Error err = text.open(shard_path(dir, std::string(kManifestFileName)));
  if (err.ok()) err = parse_manifest(text.view(), &manifest_);
  if (!err.ok()) return err;

  // Cheap cross-check of every shard file: it must exist and match its
  // manifest entry (check_shard). Only the header is parsed; full column
  // validation is deferred to open_shard.
  for (const auto& info : manifest_.shards) {
    const std::string path = shard_path(dir, info.file);
    MmapFile file;
    Header header;
    err = file.open(path);
    if (err.ok()) err = parse_header(file.data(), file.size(), &header);
    if (err.ok()) err = check_shard(info, manifest_.seed, header, file.size());
    if (!err.ok()) return name_shard(path, err);
  }

  shards_.clear();
  shards_.resize(manifest_.shards.size());
  return Error{};
}

Error ShardStore::open_shard(std::size_t i) const {
  if (shards_[i] != nullptr) return Error{};
  auto store = std::make_unique<EventStore>();
  const ShardInfo& info = manifest_.shards[i];
  const std::string path = shard_path(dir_, info.file);
  Error err = store->open(path);
  // A lazy reopen (after an LRU eviction) may find a rebuilt file under the
  // same name: hold it to the MANIFEST this store was opened with.
  if (err.ok()) {
    err = check_shard(info, manifest_.seed, store->header(), store->header().file_size);
  }
  if (!err.ok()) return name_shard(path, err);
  shards_[i] = std::move(store);
  return Error{};
}

std::size_t ShardStore::open_count() const noexcept {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    if (shard != nullptr) ++n;
  }
  return n;
}

Error ShardStore::open_all() const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (Error err = open_shard(i); !err.ok()) return err;
  }
  return Error{};
}

}  // namespace storsubsim::store
