// LineWriter — an append-only text buffer for the log hot path.
//
// The emitter used to build every line through `std::ostringstream` and
// chained `std::string operator+`, which costs one or more heap
// allocations per line (~700k lines per full-scale run). LineWriter keeps
// a single reusable `std::string` and appends into it: literals as
// `string_view`s, numbers via `std::to_chars`, and timestamps through a
// fixed-width renderer. The buffer grows geometrically and is reused
// across lines/batches, so steady-state emission performs no allocation.
//
// Buffer lifetime rule: `view()` (and any `string_view` derived from it)
// is invalidated by the next mutating call, exactly like
// `std::string::data()`. Parse results that point into a retained buffer
// (see parser.h) require the writer — or the string moved out of it via
// `take()` — to outlive them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace storsubsim::log {

class LineWriter {
 public:
  LineWriter() = default;
  /// Pre-sizes the buffer (bytes) so steady-state appends never reallocate.
  explicit LineWriter(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

  /// Grows the capacity to at least `bytes` (never shrinks it).
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  /// Drops the content, keeps the capacity.
  void clear() noexcept { buf_.clear(); }

  std::string_view view() const noexcept { return buf_; }
  const std::string& str() const noexcept { return buf_; }
  std::size_t size() const noexcept { return buf_.size(); }
  bool empty() const noexcept { return buf_.empty(); }

  /// Moves the buffer out, leaving the writer empty (capacity not retained).
  std::string take() noexcept { return std::move(buf_); }

  LineWriter& text(std::string_view s) {
    buf_.append(s);
    return *this;
  }
  LineWriter& ch(char c) {
    buf_.push_back(c);
    return *this;
  }
  LineWriter& newline() { return ch('\n'); }

  LineWriter& u32(std::uint32_t v) { return u64(v); }
  LineWriter& u64(std::uint64_t v);

  /// Appends `v` as printf "%.3f" would (the log format's time rendering).
  LineWriter& fixed3(double v);

  /// Appends the cosmetic wall-clock rendering of a sim timestamp:
  /// "D%04d %02d:%02d:%02d" (days zero-padded to at least 4 digits).
  LineWriter& timestamp(double sim_seconds);

 private:
  std::string buf_;
};

}  // namespace storsubsim::log
