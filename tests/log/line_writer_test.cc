// LineWriter's number rendering against std::to_chars, and the fixed3
// reader against std::from_chars.
#include "log/line_writer.h"

#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "log/parser.h"
#include "stats/rng.h"

namespace log_ns = storsubsim::log;
using storsubsim::stats::Rng;

namespace {

std::string reference_fixed3(double v) {
  char buf[512];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 3);
  EXPECT_EQ(ec, std::errc{});
  return std::string(buf, end);
}

std::string rendered_fixed3(double v) {
  log_ns::LineWriter out;
  out.fixed3(v);
  return std::string(out.view());
}

/// put_fixed3 through a buffer exactly kFixed3MaxChars long, so a render
/// past the bound would show under ASan.
std::string put_fixed3_bounded(double v) {
  std::vector<char> buf(log_ns::kFixed3MaxChars);
  char* end = log_ns::put_fixed3(buf.data(), v);
  return std::string(buf.data(), end);
}

}  // namespace

TEST(Fixed3, EdgeCasesMatchToChars) {
  const double max53 = std::ldexp(1.0, 53);
  const std::vector<double> values = {
      0.0, -0.0, 1.0, std::nextafter(1.0, 0.0), std::nextafter(1.0, 2.0),
      1.0625, 1.1875, 2.0625, -1.0625,  // exact ties: half to even
      0.0005, 0.0015, 0.0025, 2.0005, std::nextafter(2.0005, 0.0), std::nextafter(2.0005, 3.0),
      0.9995, 0.99950000000000006, 999.9995, 9.9995, 0.4995, 0.0004999, 1e-300,
      std::ldexp(1.0, -11), std::nextafter(std::ldexp(1.0, -11), 0.0), std::ldexp(1.0, -12),
      std::numeric_limits<double>::denorm_min(), -std::numeric_limits<double>::denorm_min(),
      DBL_MIN, -DBL_MIN, max53, std::nextafter(max53, 0.0), std::nextafter(max53, 1e300),
      -std::nextafter(max53, 0.0), std::ldexp(1.0, 52) + 0.5, std::ldexp(1.0, 52) - 0.5,
      123456789.0625, 115711200.0, 49542482.156, 1e15, 1e16, 1e17, 1e70, -1e70, DBL_MAX,
      -DBL_MAX, std::numeric_limits<double>::infinity(), -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  for (const double v : values) {
    const std::string want = reference_fixed3(v);
    EXPECT_EQ(put_fixed3_bounded(v), want) << std::bit_cast<std::uint64_t>(v);
    EXPECT_EQ(rendered_fixed3(v), want) << std::bit_cast<std::uint64_t>(v);
  }
  EXPECT_EQ(rendered_fixed3(1.0625), "1.062");
  EXPECT_EQ(rendered_fixed3(1.1875), "1.188");
  EXPECT_EQ(rendered_fixed3(-0.0), "-0.000");
  EXPECT_EQ(rendered_fixed3(std::nextafter(1.0, 0.0)), "1.000");
}

TEST(Fixed3, FiniteValuesBeyondSixtyFourCharsStayFinite) {
  // Wider than 64 chars: each prints its full decimal, sign included, and
  // reads back to itself rather than to +inf.
  for (const double v : {1e70, -1e70, DBL_MAX, -DBL_MAX}) {
    const std::string text = rendered_fixed3(v);
    EXPECT_EQ(text, reference_fixed3(v));
    EXPECT_EQ(text.find("inf"), std::string::npos);
    double back = 0.0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), back);
    EXPECT_EQ(ec, std::errc{});
    EXPECT_EQ(end, text.data() + text.size());
    EXPECT_EQ(back, v);
  }
  EXPECT_EQ(rendered_fixed3(-DBL_MAX).size(), log_ns::kFixed3MaxChars);
}

TEST(Fixed3, RandomDoublesMatchToChars) {
  // Random bit patterns (every exponent, NaNs and infinities included),
  // random values in the simulator's time range, and values a few ulps
  // from a millisecond tie.
  Rng rng(20240601);
  for (int i = 0; i < 3000000; ++i) {
    double v = 0.0;
    switch (i % 3) {
      case 0:
        v = std::bit_cast<double>(rng());
        break;
      case 1:
        v = std::ldexp(rng.uniform(), static_cast<int>(rng.below(64)) - 8);
        break;
      default: {
        const double tie = (static_cast<double>(rng.below(1ULL << 40)) * 2.0 + 1.0) / 2000.0;
        v = tie;
        for (auto steps = rng.below(5); steps > 0; --steps) {
          v = std::nextafter(v, rng.below(2) == 0 ? 0.0 : 1e300);
        }
        break;
      }
    }
    ASSERT_EQ(put_fixed3_bounded(v), reference_fixed3(v)) << std::bit_cast<std::uint64_t>(v);
  }
}

TEST(PutU64, MatchesToChars) {
  std::vector<std::uint64_t> values = {0, std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t p = 1; p <= std::numeric_limits<std::uint64_t>::max() / 10; p *= 10) {
    values.insert(values.end(), {p - 1, p, p + 1, p * 10 - 1});
  }
  Rng rng(77);
  for (int i = 0; i < 200000; ++i) values.push_back(rng() >> rng.below(64));
  for (const auto v : values) {
    char want[32];
    const auto want_end = std::to_chars(want, want + sizeof(want), v).ptr;
    char got[log_ns::kU64MaxChars];
    char* got_end = log_ns::put_u64(got, v);
    ASSERT_EQ(std::string(got, got_end), std::string(want, want_end));
  }
}

TEST(ReadFixed3, BitEqualToFromChars) {
  // Whatever read_fixed3 accepts, from_chars reads to the same bits and
  // stops at the same char; it declines all else.
  Rng rng(4242);
  const auto check = [](const std::string& text) {
    double fast = 0.0;
    const char* end = log_ns::read_fixed3(text.data(), text.data() + text.size(), fast);
    if (end == nullptr) return false;
    double slow = 0.0;
    const auto parsed = std::from_chars(text.data(), end, slow);
    EXPECT_EQ(parsed.ec, std::errc{}) << text;
    EXPECT_EQ(parsed.ptr, end) << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast), std::bit_cast<std::uint64_t>(slow)) << text;
    return true;
  };
  for (int i = 0; i < 1000000; ++i) {
    std::string text;
    const auto whole_digits = 1 + rng.below(15);
    for (std::uint64_t d = 0; d < whole_digits; ++d) text += static_cast<char>('0' + rng.below(10));
    text += '.';
    for (int d = 0; d < 3; ++d) text += static_cast<char>('0' + rng.below(10));
    const std::string millis = text.substr(0, text.size() - 4) + text.substr(text.size() - 3);
    const bool below_2_53 = std::stoull(millis) < (1ULL << 53);
    ASSERT_EQ(check(text), below_2_53) << text;
  }
  // The 2^53 boundary, in thousandths.
  EXPECT_TRUE(check("9007199254740.991"));
  EXPECT_FALSE(check("9007199254740.992"));
  // Shapes it declines.
  for (const std::string text : {"", ".123", "1.23", "1.2x4", "-1.000", "+1.000", "1e3", "inf",
                                 "1234567890123456.000", "1,000"}) {
    EXPECT_FALSE(check(text)) << text;
  }
  // It reads only the shape's own chars: what follows is the caller's.
  double v = 0.0;
  const std::string tail = "12.3456 x";
  EXPECT_EQ(log_ns::read_fixed3(tail.data(), tail.data() + tail.size(), v), tail.data() + 6);
  EXPECT_EQ(v, 12.345);
}
