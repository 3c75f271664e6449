// Checked flag values: the one parser the CLI and every bench harness use.
// A value that does not parse exits with status 2 and names the flag.
#include "util/flags.h"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

namespace util = storsubsim::util;

TEST(FlagCount, ParsesWholeDecimalIntegers) {
  EXPECT_EQ(util::flag_count("seed", "0"), 0u);
  EXPECT_EQ(util::flag_count("seed", "20080226"), 20080226u);
  EXPECT_EQ(util::flag_count("seed", "18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(util::flag_count("repeat", "3", 3), 3u);
}

TEST(FlagCount, RejectsAnythingElseWithExitTwo) {
  for (const char* bad : {"", "abc", "-1", "+1", " 1", "1 ", "1x", "1.5", "0x10",
                          "18446744073709551616"}) {
    EXPECT_EXIT(util::flag_count("repeat", bad), ::testing::ExitedWithCode(2),
                "^bad value for --repeat\n$")
        << "'" << bad << "'";
  }
}

TEST(FlagCount, RejectsValuesAboveTheBound) {
  EXPECT_EXIT(util::flag_count("threads", "4294967296", std::numeric_limits<unsigned>::max()),
              ::testing::ExitedWithCode(2), "bad value for --threads");
  EXPECT_EXIT(util::flag_count("repeat", "4", 3), ::testing::ExitedWithCode(2),
              "bad value for --repeat");
}

TEST(FlagDouble, ParsesFiniteNumbers) {
  EXPECT_EQ(util::flag_double("scale", "0.25"), 0.25);
  EXPECT_EQ(util::flag_double("scale", "1"), 1.0);
  EXPECT_EQ(util::flag_double("scale", "-2.5"), -2.5);
  EXPECT_EQ(util::flag_double("scale", "1e-3"), 1e-3);
}

TEST(FlagDouble, RejectsAnythingElseWithExitTwo) {
  for (const char* bad : {"", "abc", "0.25x", " 1", "nan", "inf", "-inf", "1e999"}) {
    EXPECT_EXIT(util::flag_double("scale", bad), ::testing::ExitedWithCode(2),
                "^bad value for --scale\n$")
        << "'" << bad << "'";
  }
}
