// Batch column-decode and predicate kernels for the store scan hot path.
//
// The per-value loops the reader and query engine started with (one
// decode_varint call per time value, one branch per row per predicate) leave
// cold-query latency bounded by instruction overhead, not memory bandwidth
// (docs/performance.md). This layer replaces them with block-granular
// kernels that each process a whole kBlockRows-row block into a
// caller-provided arena:
//
//   * decode_varint_batch  — unrolled, length-dispatched LEB128 decode
//   * delta_zigzag_prefix  — fused zigzag + prefix-sum of time deltas into
//                            f64 bit patterns
//   * decode_time_block    — the composition of the two, the unit the
//                            reader runs per block
//   * bitmap_* kernels     — wide equality / time-window predicates over
//                            the u8 enum and f64 time columns, producing
//                            64-row-per-word selection bitmaps that
//                            store::Query intersects instead of branching
//                            per row
//   * all_lt_u8 / all_ids_in_domain_u32 — the open()-time domain sweeps
//   * crc32 (declared in format.h) — the open()-time checksum: slice-by-8,
//                            or a PCLMULQDQ fold on x86-64 CPUs that have it
//
// Every kernel has a scalar implementation that is ALWAYS compiled and a
// wide (SSE2 or NEON; PCLMULQDQ for crc32) implementation selected at build
// time by the STORSUBSIM_SIMD CMake option and at run time by
// set_simd_enabled() (and, for the CRC fold, by a one-time CPU probe). The
// two produce bit-identical output for every input — integer extraction,
// GF(2) polynomial arithmetic and IEEE comparisons only, no reassociation —
// and the differential tests
// (tests/store/decode_test.cc) plus the run_checks.sh SIMD-off cmp gate
// hold them to that.
//
// Arena/lifetime contract: kernels never allocate. Output buffers are owned
// by the caller and must hold the declared capacity (`count` values, or
// bitmap_words(n) words). Bitmap kernels write whole words; bits at
// positions >= n are zero on output, so intersections and popcounts can run
// word-at-a-time without masking. Input pointers need no alignment.
#pragma once

#include <cstddef>
#include <cstdint>

namespace storsubsim::store {

/// True when a wide (SSE2/NEON) code path was compiled into this binary.
bool simd_compiled() noexcept;

/// Whether dispatching kernels take the wide path right now. Defaults to
/// simd_compiled(); tests force the scalar path to prove equivalence.
bool simd_enabled() noexcept;
void set_simd_enabled(bool enabled) noexcept;

/// Short name of the kernel path currently dispatched ("sse2+pclmul" when
/// crc32 folds with carry-less multiplies, else "sse2", "neon", "scalar") —
/// recorded in benchmark output.
const char* kernel_path_name() noexcept;

// --- batch varint + fused delta decode --------------------------------------

/// Decodes exactly `count` LEB128 varints from [p, end) into `out`. Returns
/// the bytes consumed, or 0 if the stream is truncated mid-varint or a
/// varint runs longer than 10 bytes — the exact accept/reject semantics of
/// the per-value decode_varint (format.h), including silent truncation of
/// bits past 63 in a maximum-length varint.
std::size_t decode_varint_batch(const char* p, const char* end, std::uint64_t* out,
                                std::size_t count) noexcept;

/// Fused zigzag + prefix-sum: for each of `n` zigzag-encoded deltas,
/// accumulates `*prev_bits += zigzag_decode(delta)` (unsigned wraparound —
/// defined for hostile input) and stores the running bit pattern as a
/// double in `out`. `prev_bits` carries across blocks of one column.
void delta_zigzag_prefix(const std::uint64_t* deltas, std::size_t n,
                         std::uint64_t* prev_bits, double* out) noexcept;

/// One block of the time column: decode_varint_batch into `delta_scratch`
/// (caller-provided, >= rows entries) then delta_zigzag_prefix into `out`.
/// Returns bytes consumed, 0 on a malformed stream.
std::size_t decode_time_block(const char* p, const char* end, std::size_t rows,
                              std::uint64_t* delta_scratch, std::uint64_t* prev_bits,
                              double* out) noexcept;

// --- selection bitmaps -------------------------------------------------------

/// Words needed for an n-row bitmap (64 rows per word).
constexpr std::size_t bitmap_words(std::size_t n) noexcept { return (n + 63) / 64; }

/// Sets bits [0, n) and clears the tail of the last word.
void bitmap_fill(std::uint64_t* bm, std::size_t n) noexcept;

/// bm bit i = (data[i] == value).
void bitmap_eq_u8(const std::uint8_t* data, std::size_t n, std::uint8_t value,
                  std::uint64_t* bm) noexcept;

/// Four equality bitmaps in one pass over the column: out[k] bit i =
/// (data[i] == values[k]). The shape of the group-by aggregation — one scan
/// of the type column yields all four per-type masks.
void bitmap_eq4_u8(const std::uint8_t* data, std::size_t n,
                   const std::uint8_t values[4], std::uint64_t* out0,
                   std::uint64_t* out1, std::uint64_t* out2,
                   std::uint64_t* out3) noexcept;

/// bm bit i = (!have_begin || time[i] >= begin) && (!have_end || time[i] < end).
/// IEEE semantics: a NaN time fails both predicates on both paths.
void bitmap_time_window(const double* time, std::size_t n, bool have_begin,
                        double begin, bool have_end, double end,
                        std::uint64_t* bm) noexcept;

/// dst &= src over `words` words.
void bitmap_and(std::uint64_t* dst, const std::uint64_t* src,
                std::size_t words) noexcept;

/// Population count of `words` words.
std::uint64_t popcount_words(const std::uint64_t* bm, std::size_t words) noexcept;

/// popcount(a & b) without materializing the intersection.
std::uint64_t popcount_and(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t words) noexcept;

// --- open()-time domain sweeps ----------------------------------------------

/// True iff every value is < limit.
bool all_lt_u8(const std::uint8_t* data, std::size_t n, std::uint8_t limit) noexcept;

/// True iff every value is < limit, or equals 0xffffffff when allow_invalid
/// (spares without a RAID group) — vectorized id_in_domain over a column.
bool all_ids_in_domain_u32(const std::uint32_t* data, std::size_t n,
                           std::uint32_t limit, bool allow_invalid) noexcept;

}  // namespace storsubsim::store
