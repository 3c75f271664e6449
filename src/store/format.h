// On-disk layout of the columnar event store (docs/STORE.md).
//
// A store file is the durable form of one completed pipeline run — the
// classified failure events plus the fleet topology needed to interpret
// them — laid out as struct-of-arrays column blocks so analyses can re-read
// one simulation many times at memory-map speed instead of re-running the
// simulate -> emit -> parse -> classify pipeline (the paper's own workflow:
// one AutoSupport database, many queries).
//
//   [Header (fixed 128 B, CRC32-protected)]
//   [topology columns]          one shard, raw fixed-width, 8-byte aligned
//   [event shard: near-line]    columns partitioned by system class,
//   [event shard: low-end]      time-sorted within each shard
//   [event shard: mid-range]
//   [event shard: high-end]
//   [Footer: meta block, exposure table, column directory,
//            time-window block index, CRC32]
//
// Integers are little-endian; the header carries an endianness tag and the
// reader refuses foreign byte orders rather than converting. Every column
// and both header and footer carry CRC32 checksums so corruption is detected
// as a typed error, never undefined behavior.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace storsubsim::store {

inline constexpr std::array<char, 8> kMagic = {'S', 'T', 'O', 'R', 'C', 'O', 'L', '1'};
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderSize = 128;
inline constexpr std::size_t kColumnAlignment = 8;
/// Rows per time-window block in the footer's block index.
inline constexpr std::uint64_t kBlockRows = 16384;
inline constexpr std::uint8_t kTopologyShard = 0xff;
inline constexpr std::size_t kClassCount = 4;
inline constexpr std::size_t kFailureTypeCount = 4;

/// Column identifiers. Event columns repeat once per system-class shard;
/// topology columns appear once under kTopologyShard.
enum class ColumnId : std::uint16_t {
  // --- event columns (per class shard) --------------------------------------
  kEventTime = 0,       ///< f64 bit patterns, delta-zigzag-varint encoded
  kEventType = 1,       ///< u8  model::FailureType
  kEventFamily = 2,     ///< u8  disk family of the owning *system* (Filter semantics)
  kEventDisk = 3,       ///< u32 model::DiskId
  kEventSystem = 4,     ///< u32 model::SystemId
  kEventShelf = 5,      ///< u32 model::ShelfId of the failed disk
  kEventRaidGroup = 6,  ///< u32 model::RaidGroupId (kInvalid for spares)

  // --- topology columns (one shard) -----------------------------------------
  kSysClass = 16,       ///< u8  model::SystemClass
  kSysPaths = 17,       ///< u8  model::PathConfig
  kSysDiskFamily = 18,  ///< u8  family letter of the system's disk model
  kSysDiskCap = 19,     ///< u32 capacity index of the system's disk model
  kSysShelfModel = 20,  ///< u8  shelf model letter
  kSysDeploy = 21,      ///< f64 deployment time, seconds
  kSysCohort = 22,      ///< u32 cohort tag
  kShelfSystem = 23,    ///< u32 owning system
  kShelfModel = 24,     ///< u8  shelf model letter
  kDiskFamily = 25,     ///< u8  disk model family letter
  kDiskCap = 26,        ///< u32 disk model capacity index
  kDiskSystem = 27,     ///< u32 owning system
  kDiskShelf = 28,      ///< u32 hosting shelf
  kDiskRaidGroup = 29,  ///< u32 RAID group (kInvalid for spares)
  kDiskSlot = 30,       ///< u32 shelf slot
  kDiskInstall = 31,    ///< f64 install time, seconds
  kDiskRemove = 32,     ///< f64 remove time, seconds (+inf while installed)
  kRgSystem = 33,       ///< u32 owning system
  kRgType = 34,         ///< u8  model::RaidType
  kRgMembers = 35,      ///< u32 member count
  kRgSpan = 36,         ///< u32 shelf span
};

enum class Encoding : std::uint8_t {
  kRaw = 0,          ///< fixed-width values, directly mappable
  kDeltaVarint = 1,  ///< i64 deltas of consecutive values, zigzag + LEB128
};

/// Fixed element width in bytes of a raw column; 0 for variable (varint).
std::size_t element_size(ColumnId id) noexcept;
std::string_view column_name(ColumnId id) noexcept;

// --- typed errors -----------------------------------------------------------

enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kIo,           ///< open/stat/map/write failed
  kTruncated,    ///< file shorter than a declared structure
  kBadMagic,     ///< not a store file
  kBadEndianness,///< written on a foreign-endian host
  kBadVersion,   ///< format_version this reader does not speak
  kBadHeader,    ///< header fields inconsistent or CRC mismatch
  kBadFooter,    ///< footer unparsable or CRC mismatch
  kChecksum,     ///< a column's CRC32 does not match its bytes
  kBadColumn,    ///< column directory inconsistent (bounds, rows, alignment)
  kBadValue,     ///< a decoded value is out of domain (enum, id, varint)
};

std::string_view error_code_name(ErrorCode code) noexcept;

struct Error {
  ErrorCode code = ErrorCode::kOk;
  std::string detail;       ///< human-readable context
  std::uint64_t offset = 0; ///< file offset the error anchors to, when known

  bool ok() const noexcept { return code == ErrorCode::kOk; }
  /// "error-code-name: detail (offset N)".
  std::string describe() const;
};

[[nodiscard]] Error make_error(ErrorCode code, std::string_view detail, std::uint64_t offset = 0);

// --- CRC32 (IEEE 802.3, polynomial 0xEDB88320) ------------------------------

/// The one checksum of every store, MANIFEST and replicate table. `seed` is
/// a previous crc32 result to continue from (0 to start). Implemented with
/// the kernels in decode.cc: a carry-less-multiply fold where the CPU has
/// PCLMULQDQ and the wide path is enabled, slice-by-8 otherwise and for
/// inputs under 64 bytes and the size % 16 tail — bit-identical either way.
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0) noexcept;

// --- little-endian scalar append/read helpers -------------------------------
// The writer builds the whole file image in one std::string; the reader
// memcpy's scalars out of the mapping (alignment-safe).

inline void append_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}
inline void append_u16(std::string& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}
inline void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}
inline void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}
inline void append_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  append_u64(out, bits);
}

inline std::uint8_t read_u8(const char* p) noexcept {
  return static_cast<std::uint8_t>(*p);
}
inline std::uint16_t read_u16(const char* p) noexcept {
  std::uint16_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline std::uint32_t read_u32(const char* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline std::uint64_t read_u64(const char* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline double read_f64(const char* p) noexcept {
  double v = 0.0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// --- varint (LEB128) + zigzag ----------------------------------------------

inline std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1u) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1u) ^ (~(v & 1u) + 1u));
}

inline void append_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80u) {
    out.push_back(static_cast<char>((v & 0x7fu) | 0x80u));
    v >>= 7u;
  }
  out.push_back(static_cast<char>(v));
}

/// Decodes one varint from [p, end); returns bytes consumed, 0 on overrun or
/// overlong (> 10 byte) input.
std::size_t decode_varint(const char* p, const char* end, std::uint64_t* out) noexcept;

// --- header -----------------------------------------------------------------

/// Decoded fixed-size header. Field order on disk matches declaration order;
/// the trailing CRC32 covers bytes [0, kHeaderSize - 4).
struct Header {
  std::uint32_t format_version = kFormatVersion;
  std::uint64_t file_size = 0;
  std::uint64_t footer_offset = 0;
  std::uint64_t footer_size = 0;
  std::uint64_t seed = 0;
  double scale = 0.0;
  double horizon_seconds = 0.0;
  std::uint64_t event_count = 0;
  std::uint64_t system_count = 0;
  std::uint64_t shelf_count = 0;
  std::uint64_t disk_count = 0;
  std::uint64_t raid_group_count = 0;
};

/// Serializes exactly kHeaderSize bytes (magic + endian tag + fields + zero
/// padding + CRC32) and appends them to `out`.
void append_header(std::string& out, const Header& header);

/// Parses and validates a header from `data` (>= kHeaderSize bytes must be
/// readable; the caller checks the file length first).
[[nodiscard]] Error parse_header(const char* data, std::size_t size, Header* out);

}  // namespace storsubsim::store
