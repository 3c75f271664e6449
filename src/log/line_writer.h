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
// A writer that renders many short records can skip the per-field appends:
// `grow(n)` hands out room for a whole record, the `put_*` renderers write
// into it through a raw pointer, and `commit` keeps what was written.
//
// Buffer lifetime rule: `view()` (and any `string_view` derived from it)
// is invalidated by the next mutating call, exactly like
// `std::string::data()`. Parse results that point into a retained buffer
// (see parser.h) require the writer — or the string moved out of it via
// `take()` — to outlive them.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace storsubsim::log {

/// The most chars `put_u64` writes.
inline constexpr std::size_t kU64MaxChars = 20;
/// The most chars `put_fixed3` writes: a sign, the 309 integer digits of
/// DBL_MAX, the point and three decimals.
inline constexpr std::size_t kFixed3MaxChars = 1 + 309 + 1 + 3;

/// Raw renderers: each writes at `p`, which must have room for the bound
/// named above, and returns one past the last char written.
char* put_u64(char* p, std::uint64_t v);

/// `v` as printf "%.3f" (std::to_chars fixed, precision 3) spells it. Below
/// 2^53 in magnitude the three decimals come from exact integer arithmetic
/// on the mantissa, rounded half to even; larger values, infinities and
/// NaNs go through std::to_chars.
char* put_fixed3(char* p, double v);

inline char* put_text(char* p, std::string_view s) {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

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

  /// Appends `v` as printf "%.3f" would (the log format's time rendering);
  /// see put_fixed3.
  LineWriter& fixed3(double v);

  /// Appends `n` writable bytes and returns the first. Render into them and
  /// pass one past the last byte kept to `commit`, which drops the rest; no
  /// other call may mutate the writer in between. `n` bounds one record, so
  /// the bytes cleared here stay in cache for the writes that follow.
  char* grow(std::size_t n) {
    const std::size_t old = buf_.size();
    buf_.resize(old + n);
    return buf_.data() + old;
  }
  void commit(const char* end) { buf_.resize(static_cast<std::size_t>(end - buf_.data())); }

  /// Appends the cosmetic wall-clock rendering of a sim timestamp:
  /// "D%04d %02d:%02d:%02d" (days zero-padded to at least 4 digits).
  LineWriter& timestamp(double sim_seconds);

 private:
  std::string buf_;
};

}  // namespace storsubsim::log
