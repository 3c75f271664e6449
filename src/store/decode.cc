#include "store/decode.h"

#include <atomic>
#include <bit>
#include <cstring>

#include "store/format.h"

// The CMake option STORSUBSIM_SIMD decides whether the wide paths are
// compiled at all; the target architecture decides which one. The scalar
// path is always compiled and always reachable via set_simd_enabled(false).
#ifndef STORSUBSIM_SIMD_ENABLED
#define STORSUBSIM_SIMD_ENABLED 1
#endif

#if STORSUBSIM_SIMD_ENABLED && defined(__SSE2__)
#define STORSUBSIM_HAVE_SSE2 1
#include <emmintrin.h>
#elif STORSUBSIM_SIMD_ENABLED && defined(__ARM_NEON)
#define STORSUBSIM_HAVE_NEON 1
#include <arm_neon.h>
#endif

// The carry-less-multiply CRC fold needs PCLMULQDQ and SSE4.1, which the
// x86-64 baseline does not guarantee: it is compiled with a per-function
// target attribute (no global -m flag) and taken only when the CPU reports
// both at run time.
#if defined(STORSUBSIM_HAVE_SSE2) && defined(__x86_64__) && defined(__GNUC__)
#define STORSUBSIM_HAVE_CLMUL 1
#include <smmintrin.h>
#include <wmmintrin.h>
#endif

namespace storsubsim::store {

namespace {

constexpr bool kSimdCompiled =
#if defined(STORSUBSIM_HAVE_SSE2) || defined(STORSUBSIM_HAVE_NEON)
    true;
#else
    false;
#endif

std::atomic<bool> g_simd_enabled{kSimdCompiled};

inline bool use_simd() noexcept {
  return kSimdCompiled && g_simd_enabled.load(std::memory_order_relaxed);
}

#if defined(STORSUBSIM_HAVE_CLMUL)
/// Probed once, in a function-local static so a static initializer that
/// checksums something cannot run ahead of the probe.
bool cpu_has_clmul() noexcept {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}
#endif

/// Whether crc32 folds with carry-less multiplies right now.
inline bool use_clmul() noexcept {
#if defined(STORSUBSIM_HAVE_CLMUL)
  return use_simd() && cpu_has_clmul();
#else
  return false;
#endif
}

// --- varint extraction -------------------------------------------------------

constexpr std::uint64_t kContinuationMask = 0x8080808080808080ull;

/// Gathers the 7-bit groups of a `len`-byte varint (1..8) out of a 64-bit
/// little-endian chunk. The length dispatch compiles to a jump table; each
/// case is a straight-line OR chain, so there is no per-byte loop.
inline std::uint64_t gather7(std::uint64_t c, unsigned len) noexcept {
  const std::uint64_t b0 = c & 0x7fu;
  switch (len) {
    case 1:
      return b0;
    case 2:
      return b0 | ((c >> 8) & 0x7fu) << 7;
    case 3:
      return b0 | ((c >> 8) & 0x7fu) << 7 | ((c >> 16) & 0x7fu) << 14;
    case 4:
      return b0 | ((c >> 8) & 0x7fu) << 7 | ((c >> 16) & 0x7fu) << 14 |
             ((c >> 24) & 0x7fu) << 21;
    case 5:
      return b0 | ((c >> 8) & 0x7fu) << 7 | ((c >> 16) & 0x7fu) << 14 |
             ((c >> 24) & 0x7fu) << 21 | ((c >> 32) & 0x7fu) << 28;
    case 6:
      return b0 | ((c >> 8) & 0x7fu) << 7 | ((c >> 16) & 0x7fu) << 14 |
             ((c >> 24) & 0x7fu) << 21 | ((c >> 32) & 0x7fu) << 28 |
             ((c >> 40) & 0x7fu) << 35;
    case 7:
      return b0 | ((c >> 8) & 0x7fu) << 7 | ((c >> 16) & 0x7fu) << 14 |
             ((c >> 24) & 0x7fu) << 21 | ((c >> 32) & 0x7fu) << 28 |
             ((c >> 40) & 0x7fu) << 35 | ((c >> 48) & 0x7fu) << 42;
    default:
      return b0 | ((c >> 8) & 0x7fu) << 7 | ((c >> 16) & 0x7fu) << 14 |
             ((c >> 24) & 0x7fu) << 21 | ((c >> 32) & 0x7fu) << 28 |
             ((c >> 40) & 0x7fu) << 35 | ((c >> 48) & 0x7fu) << 42 |
             ((c >> 56) & 0x7fu) << 49;
  }
}

/// Assembles a 64-bit little-endian value from 8 bytes without assuming host
/// byte order (folds to a single load on little-endian targets).
inline std::uint64_t load_le64(const char* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

}  // namespace

bool simd_compiled() noexcept { return kSimdCompiled; }

void set_simd_enabled(bool enabled) noexcept {
  g_simd_enabled.store(enabled, std::memory_order_relaxed);
}

const char* kernel_path_name() noexcept {
#if defined(STORSUBSIM_HAVE_SSE2)
  if (use_simd()) return use_clmul() ? "sse2+pclmul" : "sse2";
#elif defined(STORSUBSIM_HAVE_NEON)
  if (use_simd()) return "neon";
#endif
  return "scalar";
}

std::size_t decode_varint_batch(const char* p, const char* end, std::uint64_t* out,
                                std::size_t count) noexcept {
  const char* cursor = p;
  std::size_t i = 0;
  // Fast path: one unaligned 8-byte load finds the terminator byte (first
  // clear continuation bit) and the length dispatch extracts the value in
  // straight-line code. Varints of 9-10 bytes (every continuation bit of the
  // chunk set) fall back to the bounds-checked per-byte reference, which is
  // also the arbiter of accept/reject semantics.
  while (i < count && end - cursor >= 8) {
    const std::uint64_t chunk = load_le64(cursor);
    const std::uint64_t stop = ~chunk & kContinuationMask;
    if (stop == 0) {
      std::uint64_t v = 0;
      const std::size_t consumed = decode_varint(cursor, end, &v);
      if (consumed == 0) return 0;
      out[i++] = v;
      cursor += consumed;
      continue;
    }
    const unsigned len =
        (static_cast<unsigned>(std::countr_zero(stop)) >> 3u) + 1u;
    out[i++] = gather7(chunk, len);
    cursor += len;
  }
  // Tail: fewer than 8 readable bytes left — never read past `end`.
  for (; i < count; ++i) {
    std::uint64_t v = 0;
    const std::size_t consumed = decode_varint(cursor, end, &v);
    if (consumed == 0) return 0;
    out[i] = v;
    cursor += consumed;
  }
  return static_cast<std::size_t>(cursor - p);
}

void delta_zigzag_prefix(const std::uint64_t* deltas, std::size_t n,
                         std::uint64_t* prev_bits, double* out) noexcept {
  // The prefix sum is a serial dependence chain, but each step is two ALU
  // ops; unsigned accumulation keeps hostile input defined (the reader's
  // original contract). The bit pattern is the value: times were encoded as
  // deltas of consecutive f64 bit patterns.
  std::uint64_t prev = *prev_bits;
  for (std::size_t i = 0; i < n; ++i) {
    prev += static_cast<std::uint64_t>(zigzag_decode(deltas[i]));
    double t = 0.0;
    std::memcpy(&t, &prev, sizeof(t));
    out[i] = t;
  }
  *prev_bits = prev;
}

std::size_t decode_time_block(const char* p, const char* end, std::size_t rows,
                              std::uint64_t* delta_scratch, std::uint64_t* prev_bits,
                              double* out) noexcept {
  const std::size_t consumed = decode_varint_batch(p, end, delta_scratch, rows);
  if (consumed == 0 && rows > 0) return 0;
  delta_zigzag_prefix(delta_scratch, rows, prev_bits, out);
  return consumed;
}

// --- selection bitmaps -------------------------------------------------------

void bitmap_fill(std::uint64_t* bm, std::size_t n) noexcept {
  const std::size_t full = n / 64;
  for (std::size_t w = 0; w < full; ++w) bm[w] = ~0ull;
  if (n % 64 != 0) bm[full] = ~0ull >> (64 - n % 64);
}

namespace {

/// Scalar tail shared by every u8 bitmap kernel: rows [i, n) into the word
/// at bm[i / 64] (i is a multiple of 64).
inline void eq_u8_tail(const std::uint8_t* data, std::size_t i, std::size_t n,
                       std::uint8_t value, std::uint64_t* bm) noexcept {
  std::uint64_t word = 0;
  for (std::size_t j = i; j < n; ++j) {
    word |= static_cast<std::uint64_t>(data[j] == value ? 1u : 0u) << (j - i);
  }
  bm[i / 64] = word;
}

void bitmap_eq_u8_scalar(const std::uint8_t* data, std::size_t n, std::uint8_t value,
                         std::uint64_t* bm) noexcept {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < 64; ++j) {
      word |= static_cast<std::uint64_t>(data[i + j] == value ? 1u : 0u) << j;
    }
    bm[i / 64] = word;
  }
  if (i < n) eq_u8_tail(data, i, n, value, bm);
}

#if defined(STORSUBSIM_HAVE_SSE2)

void bitmap_eq_u8_sse2(const std::uint8_t* data, std::size_t n, std::uint8_t value,
                       std::uint64_t* bm) noexcept {
  const __m128i needle = _mm_set1_epi8(static_cast<char>(value));
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t word = 0;
    for (unsigned k = 0; k < 4; ++k) {
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i + 16 * k));
      const auto bits = static_cast<std::uint32_t>(
          static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(x, needle))));
      word |= static_cast<std::uint64_t>(bits) << (16 * k);
    }
    bm[i / 64] = word;
  }
  if (i < n) eq_u8_tail(data, i, n, value, bm);
}

#elif defined(STORSUBSIM_HAVE_NEON)

/// 16 comparison lanes (0xff / 0x00) -> a 16-bit mask, least-significant
/// lane first, matching SSE2's movemask bit order.
inline std::uint32_t neon_mask16(uint8x16_t eq) noexcept {
  const uint8x16_t bits = {1, 2, 4, 8, 16, 32, 64, 128, 1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t masked = vandq_u8(eq, bits);
  const uint8x8_t lo = vget_low_u8(masked);
  const uint8x8_t hi = vget_high_u8(masked);
  const std::uint32_t lo_bits = vaddv_u8(lo);
  const std::uint32_t hi_bits = vaddv_u8(hi);
  return lo_bits | (hi_bits << 8);
}

void bitmap_eq_u8_neon(const std::uint8_t* data, std::size_t n, std::uint8_t value,
                       std::uint64_t* bm) noexcept {
  const uint8x16_t needle = vdupq_n_u8(value);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t word = 0;
    for (unsigned k = 0; k < 4; ++k) {
      const uint8x16_t x = vld1q_u8(data + i + 16 * k);
      word |= static_cast<std::uint64_t>(neon_mask16(vceqq_u8(x, needle)))
              << (16 * k);
    }
    bm[i / 64] = word;
  }
  if (i < n) eq_u8_tail(data, i, n, value, bm);
}

#endif

}  // namespace

void bitmap_eq_u8(const std::uint8_t* data, std::size_t n, std::uint8_t value,
                  std::uint64_t* bm) noexcept {
#if defined(STORSUBSIM_HAVE_SSE2)
  if (use_simd()) {
    bitmap_eq_u8_sse2(data, n, value, bm);
    return;
  }
#elif defined(STORSUBSIM_HAVE_NEON)
  if (use_simd()) {
    bitmap_eq_u8_neon(data, n, value, bm);
    return;
  }
#endif
  bitmap_eq_u8_scalar(data, n, value, bm);
}

void bitmap_eq4_u8(const std::uint8_t* data, std::size_t n,
                   const std::uint8_t values[4], std::uint64_t* out0,
                   std::uint64_t* out1, std::uint64_t* out2,
                   std::uint64_t* out3) noexcept {
  std::uint64_t* outs[4] = {out0, out1, out2, out3};
#if defined(STORSUBSIM_HAVE_SSE2)
  if (use_simd()) {
    __m128i needles[4];
    for (unsigned v = 0; v < 4; ++v) {
      needles[v] = _mm_set1_epi8(static_cast<char>(values[v]));
    }
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
      std::uint64_t words[4] = {0, 0, 0, 0};
      for (unsigned k = 0; k < 4; ++k) {
        const __m128i x =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i + 16 * k));
        for (unsigned v = 0; v < 4; ++v) {
          const auto bits = static_cast<std::uint32_t>(static_cast<unsigned>(
              _mm_movemask_epi8(_mm_cmpeq_epi8(x, needles[v]))));
          words[v] |= static_cast<std::uint64_t>(bits) << (16 * k);
        }
      }
      for (unsigned v = 0; v < 4; ++v) outs[v][i / 64] = words[v];
    }
    if (i < n) {
      for (unsigned v = 0; v < 4; ++v) eq_u8_tail(data, i, n, values[v], outs[v]);
    }
    return;
  }
#elif defined(STORSUBSIM_HAVE_NEON)
  if (use_simd()) {
    for (unsigned v = 0; v < 4; ++v) bitmap_eq_u8_neon(data, n, values[v], outs[v]);
    return;
  }
#endif
  for (unsigned v = 0; v < 4; ++v) bitmap_eq_u8_scalar(data, n, values[v], outs[v]);
}

namespace {

enum class WindowKind { kBoth, kBeginOnly, kEndOnly };

/// One row's window predicate — the single definition both paths implement.
inline bool window_bit(double t, WindowKind kind, double begin, double end) noexcept {
  switch (kind) {
    case WindowKind::kBoth:
      return t >= begin && t < end;
    case WindowKind::kBeginOnly:
      return t >= begin;
    case WindowKind::kEndOnly:
      return t < end;
  }
  return false;
}

void bitmap_time_window_scalar(const double* time, std::size_t n, WindowKind kind,
                               double begin, double end, std::uint64_t* bm) noexcept {
  const std::size_t words = bitmap_words(n);
  for (std::size_t w = 0; w < words; ++w) bm[w] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bm[i / 64] |= static_cast<std::uint64_t>(window_bit(time[i], kind, begin, end) ? 1u : 0u)
                  << (i % 64);
  }
}

#if defined(STORSUBSIM_HAVE_SSE2)

void bitmap_time_window_sse2(const double* time, std::size_t n, WindowKind kind,
                             double begin, double end, std::uint64_t* bm) noexcept {
  const __m128d lo = _mm_set1_pd(begin);
  const __m128d hi = _mm_set1_pd(end);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t word = 0;
    for (unsigned k = 0; k < 32; ++k) {
      const __m128d t = _mm_loadu_pd(time + i + 2 * k);
      __m128d ok;
      switch (kind) {
        case WindowKind::kBoth:
          ok = _mm_and_pd(_mm_cmpge_pd(t, lo), _mm_cmplt_pd(t, hi));
          break;
        case WindowKind::kBeginOnly:
          ok = _mm_cmpge_pd(t, lo);
          break;
        default:
          ok = _mm_cmplt_pd(t, hi);
          break;
      }
      const auto bits =
          static_cast<std::uint32_t>(static_cast<unsigned>(_mm_movemask_pd(ok)));
      word |= static_cast<std::uint64_t>(bits) << (2 * k);
    }
    bm[i / 64] = word;
  }
  if (i < n) {
    std::uint64_t word = 0;
    for (std::size_t j = i; j < n; ++j) {
      word |= static_cast<std::uint64_t>(window_bit(time[j], kind, begin, end) ? 1u : 0u)
              << (j - i);
    }
    bm[i / 64] = word;
  }
}

#elif defined(STORSUBSIM_HAVE_NEON)

void bitmap_time_window_neon(const double* time, std::size_t n, WindowKind kind,
                             double begin, double end, std::uint64_t* bm) noexcept {
  const float64x2_t lo = vdupq_n_f64(begin);
  const float64x2_t hi = vdupq_n_f64(end);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t word = 0;
    for (unsigned k = 0; k < 32; ++k) {
      const float64x2_t t = vld1q_f64(time + i + 2 * k);
      uint64x2_t ok;
      switch (kind) {
        case WindowKind::kBoth:
          ok = vandq_u64(vcgeq_f64(t, lo), vcltq_f64(t, hi));
          break;
        case WindowKind::kBeginOnly:
          ok = vcgeq_f64(t, lo);
          break;
        default:
          ok = vcltq_f64(t, hi);
          break;
      }
      const std::uint64_t bits =
          (vgetq_lane_u64(ok, 0) & 1u) | ((vgetq_lane_u64(ok, 1) & 1u) << 1u);
      word |= bits << (2 * k);
    }
    bm[i / 64] = word;
  }
  if (i < n) {
    std::uint64_t word = 0;
    for (std::size_t j = i; j < n; ++j) {
      word |= static_cast<std::uint64_t>(window_bit(time[j], kind, begin, end) ? 1u : 0u)
              << (j - i);
    }
    bm[i / 64] = word;
  }
}

#endif

}  // namespace

void bitmap_time_window(const double* time, std::size_t n, bool have_begin,
                        double begin, bool have_end, double end,
                        std::uint64_t* bm) noexcept {
  if (!have_begin && !have_end) {
    // No predicate selects everything — including NaN times, exactly like
    // the row loop this kernel replaced.
    bitmap_fill(bm, n);
    return;
  }
  const WindowKind kind = have_begin && have_end ? WindowKind::kBoth
                          : have_begin          ? WindowKind::kBeginOnly
                                                : WindowKind::kEndOnly;
#if defined(STORSUBSIM_HAVE_SSE2)
  if (use_simd()) {
    bitmap_time_window_sse2(time, n, kind, begin, end, bm);
    return;
  }
#elif defined(STORSUBSIM_HAVE_NEON)
  if (use_simd()) {
    bitmap_time_window_neon(time, n, kind, begin, end, bm);
    return;
  }
#endif
  bitmap_time_window_scalar(time, n, kind, begin, end, bm);
}

void bitmap_and(std::uint64_t* dst, const std::uint64_t* src,
                std::size_t words) noexcept {
  for (std::size_t w = 0; w < words; ++w) dst[w] &= src[w];
}

std::uint64_t popcount_and(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t words) noexcept {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < words; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(a[w] & b[w]));
  }
  return total;
}

// --- open()-time domain sweeps ----------------------------------------------

namespace {

bool all_lt_u8_scalar(const std::uint8_t* data, std::size_t n,
                      std::uint8_t limit) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (data[i] >= limit) return false;
  }
  return true;
}

bool all_ids_in_domain_u32_scalar(const std::uint32_t* data, std::size_t n,
                                  std::uint32_t limit, bool allow_invalid) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t v = data[i];
    if (v < limit) continue;
    if (allow_invalid && v == 0xffffffffu) continue;
    return false;
  }
  return true;
}

#if defined(STORSUBSIM_HAVE_SSE2)

bool all_lt_u8_sse2(const std::uint8_t* data, std::size_t n,
                    std::uint8_t limit) noexcept {
  if (limit == 0) return n == 0;
  // sat_sub(v, limit - 1) is nonzero exactly when v >= limit.
  const __m128i thresh = _mm_set1_epi8(static_cast<char>(limit - 1));
  __m128i violations = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    violations = _mm_or_si128(violations, _mm_subs_epu8(x, thresh));
  }
  const int all_zero = _mm_movemask_epi8(
      _mm_cmpeq_epi8(violations, _mm_setzero_si128()));
  if (all_zero != 0xffff) return false;
  return all_lt_u8_scalar(data + i, n - i, limit);
}

bool all_ids_in_domain_u32_sse2(const std::uint32_t* data, std::size_t n,
                                std::uint32_t limit, bool allow_invalid) noexcept {
  // Unsigned < via the sign-flip trick: a <u b  <=>  (a ^ MIN) <s (b ^ MIN).
  const __m128i flip = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i lim = _mm_set1_epi32(static_cast<int>(limit ^ 0x80000000u));
  const __m128i inv = _mm_set1_epi32(-1);
  __m128i all_ok = _mm_set1_epi32(-1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    __m128i ok = _mm_cmplt_epi32(_mm_xor_si128(x, flip), lim);
    if (allow_invalid) ok = _mm_or_si128(ok, _mm_cmpeq_epi32(x, inv));
    all_ok = _mm_and_si128(all_ok, ok);
  }
  if (_mm_movemask_epi8(all_ok) != 0xffff) return false;
  return all_ids_in_domain_u32_scalar(data + i, n - i, limit, allow_invalid);
}

#elif defined(STORSUBSIM_HAVE_NEON)

bool all_lt_u8_neon(const std::uint8_t* data, std::size_t n,
                    std::uint8_t limit) noexcept {
  const uint8x16_t lim = vdupq_n_u8(limit);
  uint8x16_t all_ok = vdupq_n_u8(0xff);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    all_ok = vandq_u8(all_ok, vcltq_u8(vld1q_u8(data + i), lim));
  }
  if (vminvq_u8(all_ok) != 0xff) return false;
  return all_lt_u8_scalar(data + i, n - i, limit);
}

bool all_ids_in_domain_u32_neon(const std::uint32_t* data, std::size_t n,
                                std::uint32_t limit, bool allow_invalid) noexcept {
  const uint32x4_t lim = vdupq_n_u32(limit);
  const uint32x4_t inv = vdupq_n_u32(0xffffffffu);
  uint32x4_t all_ok = vdupq_n_u32(0xffffffffu);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t x = vld1q_u32(data + i);
    uint32x4_t ok = vcltq_u32(x, lim);
    if (allow_invalid) ok = vorrq_u32(ok, vceqq_u32(x, inv));
    all_ok = vandq_u32(all_ok, ok);
  }
  if (vminvq_u32(all_ok) != 0xffffffffu) return false;
  return all_ids_in_domain_u32_scalar(data + i, n - i, limit, allow_invalid);
}

#endif

}  // namespace

bool all_lt_u8(const std::uint8_t* data, std::size_t n, std::uint8_t limit) noexcept {
#if defined(STORSUBSIM_HAVE_SSE2)
  if (use_simd()) return all_lt_u8_sse2(data, n, limit);
#elif defined(STORSUBSIM_HAVE_NEON)
  if (use_simd()) return all_lt_u8_neon(data, n, limit);
#endif
  return all_lt_u8_scalar(data, n, limit);
}

bool all_ids_in_domain_u32(const std::uint32_t* data, std::size_t n,
                           std::uint32_t limit, bool allow_invalid) noexcept {
#if defined(STORSUBSIM_HAVE_SSE2)
  if (use_simd()) return all_ids_in_domain_u32_sse2(data, n, limit, allow_invalid);
#elif defined(STORSUBSIM_HAVE_NEON)
  if (use_simd()) return all_ids_in_domain_u32_neon(data, n, limit, allow_invalid);
#endif
  return all_ids_in_domain_u32_scalar(data, n, limit, allow_invalid);
}

// --- crc32 -------------------------------------------------------------------

namespace {

/// Slice-by-8 CRC32 lookup tables (deterministic constants). Table 0 is the
/// classic bytewise table; table k folds k extra zero bytes into the
/// remainder, letting the hot loop consume 8 input bytes per iteration with
/// the exact same polynomial arithmetic (bit-identical to bytewise).
struct Crc32Table {
  std::uint32_t entries[8][256] = {};

  constexpr Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1u) : c >> 1u;
      }
      entries[0][i] = c;
    }
    for (std::size_t t = 1; t < 8; ++t) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = entries[t - 1][i];
        entries[t][i] = entries[0][prev & 0xffu] ^ (prev >> 8u);
      }
    }
  }
};

constexpr Crc32Table kCrcTable;

/// Assembles a little-endian u32 from raw bytes (host-order independent;
/// folds to one load on little-endian targets).
inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8u) |
         (static_cast<std::uint32_t>(p[2]) << 16u) |
         (static_cast<std::uint32_t>(p[3]) << 24u);
}

/// The scalar path: advances the running (pre-inverted) remainder `c` over
/// `size` bytes, 8 per table step.
std::uint32_t crc32_slice8(const unsigned char* p, std::size_t size,
                           std::uint32_t c) noexcept {
  const auto& t = kCrcTable.entries;
  while (size >= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8u) & 0xffu] ^ t[5][(lo >> 16u) & 0xffu] ^
        t[4][lo >> 24u] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8u) & 0xffu] ^
        t[1][(hi >> 16u) & 0xffu] ^ t[0][hi >> 24u];
    p += 8;
    size -= 8;
  }
  for (std::size_t i = 0; i < size; ++i) {
    c = t[0][(c ^ p[i]) & 0xffu] ^ (c >> 8u);
  }
  return c;
}

#if defined(STORSUBSIM_HAVE_CLMUL)

/// Folds a 128-bit lane forward: its low half times k's low constant xor its
/// high half times k's high constant.
__attribute__((target("pclmul"))) inline __m128i fold(__m128i x, __m128i k) noexcept {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11));
}

/// The wide path: the same remainder by carry-less multiplication (Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction", Intel 2009 — the fold zlib's crc32_simd uses). Four 128-bit
/// lanes each fold 16 bytes forward per 64-byte step; the lanes then fold
/// into one, which is reduced 128 -> 64 bits and Barrett-reduced to 32. The
/// constants are the paper's bit-reflected x^k mod P(x) for 0xEDB88320:
/// k1/k2 fold by 512 bits, k3/k4 by 128, k5 by 64, then P(x) and
/// mu = floor(x^64 / P(x)). Requires size >= 64 and size % 16 == 0.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold(
    const unsigned char* p, std::size_t size, std::uint32_t c) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const auto load = [](const unsigned char* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    x1 = _mm_xor_si128(fold(x1, k1k2), load(p));
    x2 = _mm_xor_si128(fold(x2, k1k2), load(p + 16));
    x3 = _mm_xor_si128(fold(x3, k1k2), load(p + 32));
    x4 = _mm_xor_si128(fold(x4, k1k2), load(p + 48));
  }
  x1 = _mm_xor_si128(fold(x1, k3k4), x2);
  x1 = _mm_xor_si128(fold(x1, k3k4), x3);
  x1 = _mm_xor_si128(fold(x1, k3k4), x4);
  for (; size >= 16; p += 16, size -= 16) {
    x1 = _mm_xor_si128(fold(x1, k3k4), load(p));
  }

  // 128 -> 64 bits, then 64 -> 32 significant bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#endif

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xffffffffu;
#if defined(STORSUBSIM_HAVE_CLMUL)
  // The fold takes whole 16-byte lanes; the size % 16 tail and inputs too
  // short to fill the four lanes go through slice-by-8.
  if (size >= 64 && use_clmul()) {
    const std::size_t folded = size & ~std::size_t{15};
    c = crc32_fold(p, folded, c);
    p += folded;
    size -= folded;
  }
#endif
  return crc32_slice8(p, size, c) ^ 0xffffffffu;
}

}  // namespace storsubsim::store
