// Checked numbers from command-line flag values.
//
// The storsubsim CLI and every bench harness read their numeric flags
// through these two functions, so a value that does not parse gets the same
// message and the same exit status everywhere.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

namespace storsubsim::util {

/// The value of flag --`name`: all of `text` as a non-negative decimal
/// integer no larger than `max`. Anything else (a sign, spaces, trailing
/// characters, overflow) prints "bad value for --NAME" to stderr and exits
/// with status 2, the usage-error status.
std::uint64_t flag_count(std::string_view name, std::string_view text,
                         std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// The value of flag --`name`: all of `text` as a finite number. Anything
/// else ("", "1x", "nan", "inf", out of range) exits like flag_count.
double flag_double(std::string_view name, std::string_view text);

}  // namespace storsubsim::util
