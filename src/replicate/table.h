// STORREP1: the serialized form of one replication run.
//
// A replicate table is to the replication engine what a STORCOL1 store is to
// one simulation: the durable artifact that lets `analyze --replicates` and
// the daemon's replicate_summary endpoint answer without re-simulating. The
// layout follows the store conventions (docs/REPLICATION.md): little-endian
// scalars via store/format.h helpers, f64 as exact bit patterns, a trailing
// CRC32 over everything before it, and typed store::Error decoding failures.
//
//   [magic "STORREP1"] [u32 version] [u32 stat_count]
//   [u64 seed] [f64 scale] [f64 confidence] [f64 ci_rel]
//   [u64 max_replicates] [u64 min_replicates] [u64 batch] [u64 replicates]
//   [u8 stop_reason] [7 B zero pad]
//   per statistic: [u16 name_len][name bytes] [u8 family] [u64 stopped_at]
//                  [f64 mean stddev ci_lo ci_hi p025 p500 p975]
//   values matrix, stat-major: stat_count x replicates f64
//   [u32 crc32 of all preceding bytes]
//
// encode_table() is a pure function of the summary — bit-identical tables
// for bit-identical runs — which is what lets run_checks.sh cmp tables
// produced at different thread counts.
#pragma once

#include <string>
#include <string_view>

#include "replicate/replicate.h"
#include "store/format.h"

namespace storsubsim::replicate {

inline constexpr std::array<char, 8> kTableMagic = {'S', 'T', 'O', 'R', 'R', 'E', 'P', '1'};
inline constexpr std::uint32_t kTableVersion = 1;

/// Serializes a summary to the STORREP1 byte image.
std::string encode_table(const ReplicateSummary& summary);

/// Parses a STORREP1 image. Corruption and truncation come back as typed
/// store errors (kTruncated/kBadMagic/kBadVersion/kChecksum/kBadValue) —
/// never as undefined behavior or a partially-filled summary.
// storsim-lint: allow(unused-export) reason=test seam: ReplicateTable.* check read_table's parser on in-memory images
[[nodiscard]] store::Error decode_table(std::string_view bytes, ReplicateSummary* out);

/// Whole-file write/read wrappers (kIo on filesystem failure).
[[nodiscard]] store::Error write_table(const std::string& path,
                                       const ReplicateSummary& summary);
[[nodiscard]] store::Error read_table(const std::string& path, ReplicateSummary* out);

}  // namespace storsubsim::replicate
