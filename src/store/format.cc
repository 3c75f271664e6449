#include "store/format.h"

#include <charconv>

namespace storsubsim::store {

namespace {

void append_number(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec == std::errc{}) out.append(buf, ptr);
}

}  // namespace

std::size_t element_size(ColumnId id) noexcept {
  switch (id) {
    case ColumnId::kEventTime:
      return 0;  // delta-varint encoded
    case ColumnId::kEventType:
    case ColumnId::kEventFamily:
    case ColumnId::kSysClass:
    case ColumnId::kSysPaths:
    case ColumnId::kSysDiskFamily:
    case ColumnId::kSysShelfModel:
    case ColumnId::kShelfModel:
    case ColumnId::kDiskFamily:
    case ColumnId::kRgType:
      return 1;
    case ColumnId::kEventDisk:
    case ColumnId::kEventSystem:
    case ColumnId::kEventShelf:
    case ColumnId::kEventRaidGroup:
    case ColumnId::kSysDiskCap:
    case ColumnId::kSysCohort:
    case ColumnId::kShelfSystem:
    case ColumnId::kDiskCap:
    case ColumnId::kDiskSystem:
    case ColumnId::kDiskShelf:
    case ColumnId::kDiskRaidGroup:
    case ColumnId::kDiskSlot:
    case ColumnId::kRgSystem:
    case ColumnId::kRgMembers:
    case ColumnId::kRgSpan:
      return 4;
    case ColumnId::kSysDeploy:
    case ColumnId::kDiskInstall:
    case ColumnId::kDiskRemove:
      return 8;
  }
  return 0;
}

std::string_view column_name(ColumnId id) noexcept {
  switch (id) {
    case ColumnId::kEventTime: return "event.time";
    case ColumnId::kEventType: return "event.type";
    case ColumnId::kEventFamily: return "event.family";
    case ColumnId::kEventDisk: return "event.disk";
    case ColumnId::kEventSystem: return "event.system";
    case ColumnId::kEventShelf: return "event.shelf";
    case ColumnId::kEventRaidGroup: return "event.raid_group";
    case ColumnId::kSysClass: return "system.class";
    case ColumnId::kSysPaths: return "system.paths";
    case ColumnId::kSysDiskFamily: return "system.disk_family";
    case ColumnId::kSysDiskCap: return "system.disk_cap";
    case ColumnId::kSysShelfModel: return "system.shelf_model";
    case ColumnId::kSysDeploy: return "system.deploy";
    case ColumnId::kSysCohort: return "system.cohort";
    case ColumnId::kShelfSystem: return "shelf.system";
    case ColumnId::kShelfModel: return "shelf.model";
    case ColumnId::kDiskFamily: return "disk.family";
    case ColumnId::kDiskCap: return "disk.cap";
    case ColumnId::kDiskSystem: return "disk.system";
    case ColumnId::kDiskShelf: return "disk.shelf";
    case ColumnId::kDiskRaidGroup: return "disk.raid_group";
    case ColumnId::kDiskSlot: return "disk.slot";
    case ColumnId::kDiskInstall: return "disk.install";
    case ColumnId::kDiskRemove: return "disk.remove";
    case ColumnId::kRgSystem: return "raid_group.system";
    case ColumnId::kRgType: return "raid_group.type";
    case ColumnId::kRgMembers: return "raid_group.members";
    case ColumnId::kRgSpan: return "raid_group.span";
  }
  return "unknown";
}

std::string_view error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kIo: return "io-error";
    case ErrorCode::kTruncated: return "truncated";
    case ErrorCode::kBadMagic: return "bad-magic";
    case ErrorCode::kBadEndianness: return "bad-endianness";
    case ErrorCode::kBadVersion: return "bad-version";
    case ErrorCode::kBadHeader: return "bad-header";
    case ErrorCode::kBadFooter: return "bad-footer";
    case ErrorCode::kChecksum: return "checksum-mismatch";
    case ErrorCode::kBadColumn: return "bad-column";
    case ErrorCode::kBadValue: return "bad-value";
  }
  return "unknown";
}

std::string Error::describe() const {
  std::string out(error_code_name(code));
  if (!detail.empty()) {
    out.append(": ").append(detail);
  }
  if (offset != 0) {
    out.append(" (offset ");
    append_number(out, offset);
    out.append(")");
  }
  return out;
}

Error make_error(ErrorCode code, std::string_view detail, std::uint64_t offset) {
  Error e;
  e.code = code;
  e.detail = std::string(detail);
  e.offset = offset;
  return e;
}

std::size_t decode_varint(const char* p, const char* end, std::uint64_t* out) noexcept {
  std::uint64_t value = 0;
  unsigned shift = 0;
  const char* cursor = p;
  while (cursor < end && shift < 64) {
    const auto byte = static_cast<std::uint8_t>(*cursor);
    ++cursor;
    value |= static_cast<std::uint64_t>(byte & 0x7fu) << shift;
    if ((byte & 0x80u) == 0) {
      *out = value;
      return static_cast<std::size_t>(cursor - p);
    }
    shift += 7;
  }
  return 0;  // ran off the end or overlong encoding
}

void append_header(std::string& out, const Header& header) {
  const std::size_t base = out.size();
  out.append(kMagic.data(), kMagic.size());
  append_u32(out, kEndianTag);
  append_u32(out, header.format_version);
  append_u64(out, header.file_size);
  append_u64(out, header.footer_offset);
  append_u64(out, header.footer_size);
  append_u64(out, header.seed);
  append_f64(out, header.scale);
  append_f64(out, header.horizon_seconds);
  append_u64(out, header.event_count);
  append_u64(out, header.system_count);
  append_u64(out, header.shelf_count);
  append_u64(out, header.disk_count);
  append_u64(out, header.raid_group_count);
  while (out.size() - base < kHeaderSize - 4) out.push_back('\0');
  append_u32(out, crc32(out.data() + base, kHeaderSize - 4));
}

Error parse_header(const char* data, std::size_t size, Header* out) {
  if (size < kHeaderSize) {
    return make_error(ErrorCode::kTruncated, "file shorter than the fixed header");
  }
  if (std::memcmp(data, kMagic.data(), kMagic.size()) != 0) {
    return make_error(ErrorCode::kBadMagic, "not a storsubsim column store file");
  }
  if (read_u32(data + 8) != kEndianTag) {
    return make_error(ErrorCode::kBadEndianness,
                      "store written on a foreign-endian host", 8);
  }
  const std::uint32_t stored_crc = read_u32(data + kHeaderSize - 4);
  if (stored_crc != crc32(data, kHeaderSize - 4)) {
    return make_error(ErrorCode::kBadHeader, "header CRC32 mismatch",
                      kHeaderSize - 4);
  }
  Header h;
  h.format_version = read_u32(data + 12);
  if (h.format_version != kFormatVersion) {
    std::string detail("unsupported format version ");
    char buf[16];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), h.format_version);
    if (ec == std::errc{}) detail.append(buf, ptr);
    return Error{ErrorCode::kBadVersion, std::move(detail), 12};
  }
  h.file_size = read_u64(data + 16);
  h.footer_offset = read_u64(data + 24);
  h.footer_size = read_u64(data + 32);
  h.seed = read_u64(data + 40);
  h.scale = read_f64(data + 48);
  h.horizon_seconds = read_f64(data + 56);
  h.event_count = read_u64(data + 64);
  h.system_count = read_u64(data + 72);
  h.shelf_count = read_u64(data + 80);
  h.disk_count = read_u64(data + 88);
  h.raid_group_count = read_u64(data + 96);
  *out = h;
  return Error{};
}

}  // namespace storsubsim::store
