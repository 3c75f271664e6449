#include "log/line_writer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>

namespace storsubsim::log {

namespace {

/// "00" "01" ... "99": two digits per table read.
constexpr char kDigitPairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/// 10^0 ... 10^19, every power of ten a uint64_t holds.
constexpr auto kPow10 = [] {
  std::array<std::uint64_t, 20> pow{};
  pow[0] = 1;
  for (std::size_t i = 1; i < pow.size(); ++i) pow[i] = pow[i - 1] * 10;
  return pow;
}();

/// Writes `v` zero-padded to `width` digits at `p` (wider values keep all
/// digits); returns one past the last written char.
char* put_padded(char* p, std::uint64_t v, int width) {
  char digits[kU64MaxChars];
  const char* end = put_u64(digits, v);
  for (auto n = static_cast<int>(end - digits); n < width; ++n) *p++ = '0';
  for (const char* d = digits; d != end; ++d) *p++ = *d;
  return p;
}

}  // namespace

char* put_u64(char* p, std::uint64_t v) {
  // The digit count: bit_width * log10(2) (1233 / 4096) is the count or one
  // less; one comparison with a power of ten settles it.
  const auto approx = static_cast<std::size_t>((std::bit_width(v | 1) * 1233) >> 12);
  const std::size_t digits = approx + (v >= kPow10[approx] ? 1 : 0);
  char* const end = p + std::max<std::size_t>(digits, 1);
  char* q = end;
  while (v >= 100) {
    q -= 2;
    std::memcpy(q, kDigitPairs + 2 * (v % 100), 2);
    v /= 100;
  }
  if (v >= 10) {
    std::memcpy(q - 2, kDigitPairs + 2 * v, 2);
  } else {
    q[-1] = static_cast<char>('0' + v);
  }
  return end;
}

char* put_fixed3(char* p, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto biased_exp = static_cast<int>((bits >> 52) & 0x7ff);
  if (biased_exp > 1075) {  // |v| >= 2^53, inf or NaN
    // kFixed3MaxChars holds every finite double at precision 3 and the
    // "-inf"/"-nan" spellings, so the conversion cannot run out of room.
    return std::to_chars(p, p + kFixed3MaxChars, v, std::chars_format::fixed, 3).ptr;
  }
  if ((bits >> 63) != 0) *p++ = '-';
  // |v| = mantissa * 2^-shift with a 53-bit mantissa. Zero and subnormals
  // (biased_exp 0), and anything below 2^-11 (shift >= 64), print 0.000:
  // 1000|v| < 0.5 there.
  std::uint64_t whole = 0;
  std::uint64_t millis = 0;
  const int shift = 1075 - biased_exp;
  if (biased_exp != 0 && shift < 64) {
    constexpr std::uint64_t kImplicitBit = std::uint64_t{1} << 52;
    const std::uint64_t mantissa = (bits & (kImplicitBit - 1)) | kImplicitBit;
    const std::uint64_t mask = (std::uint64_t{1} << shift) - 1;
    whole = mantissa >> shift;
    // The fraction has at most 53 bits, so fraction*1000 < 2^63: exact.
    const std::uint64_t scaled = (mantissa & mask) * 1000;
    millis = scaled >> shift;
    const std::uint64_t rest = scaled & mask;
    if (shift > 0) {
      const std::uint64_t half = std::uint64_t{1} << (shift - 1);
      if (rest > half || (rest == half && (millis & 1) != 0)) ++millis;  // half to even
    }
    if (millis == 1000) {
      ++whole;
      millis = 0;
    }
  }
  p = put_u64(p, whole);
  *p++ = '.';
  *p++ = static_cast<char>('0' + millis / 100);
  *p++ = static_cast<char>('0' + millis / 10 % 10);
  *p++ = static_cast<char>('0' + millis % 10);
  return p;
}

LineWriter& LineWriter::u64(std::uint64_t v) {
  char digits[kU64MaxChars];
  buf_.append(digits, put_u64(digits, v));
  return *this;
}

LineWriter& LineWriter::fixed3(double v) {
  char digits[kFixed3MaxChars];
  buf_.append(digits, put_fixed3(digits, v));
  return *this;
}

LineWriter& LineWriter::timestamp(double sim_seconds) {
  const double clamped = std::max(0.0, sim_seconds);
  const long total = std::lround(std::floor(clamped));
  const auto days = static_cast<std::uint64_t>(total / 86400);
  const auto hours = static_cast<std::uint64_t>((total % 86400) / 3600);
  const auto mins = static_cast<std::uint64_t>((total % 3600) / 60);
  const auto secs = static_cast<std::uint64_t>(total % 60);
  // Rendered into a stack buffer first so the hot path pays one append, not
  // eight ("D" + up-to-20-digit day + " hh:mm:ss").
  char stamp[32];
  char* p = stamp;
  *p++ = 'D';
  p = put_padded(p, days, 4);
  *p++ = ' ';
  p = put_padded(p, hours, 2);
  *p++ = ':';
  p = put_padded(p, mins, 2);
  *p++ = ':';
  p = put_padded(p, secs, 2);
  buf_.append(stamp, p);
  return *this;
}

}  // namespace storsubsim::log
