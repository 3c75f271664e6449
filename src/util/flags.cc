#include "util/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace storsubsim::util {
namespace {

[[noreturn]] void exit_bad_value(std::string_view name) {
  std::fprintf(stderr, "bad value for --%.*s\n", static_cast<int>(name.size()), name.data());
  std::exit(2);
}

}  // namespace

std::uint64_t flag_count(std::string_view name, std::string_view text, std::uint64_t max) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() || value > max) {
    exit_bad_value(name);
  }
  return value;
}

double flag_double(std::string_view name, std::string_view text) {
  double value = 0.0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() || !std::isfinite(value)) {
    exit_bad_value(name);
  }
  return value;
}

}  // namespace storsubsim::util
