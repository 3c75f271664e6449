// Deterministic, splittable random number generation.
//
// Every stochastic object in the simulator draws from its own `Rng` stream,
// derived from a root seed plus a structured key (e.g. "disk-hazard",
// system id, shelf id). Streams derived from distinct keys are statistically
// independent, and a given (seed, key) pair always yields the same sequence,
// which makes whole-fleet simulations bit-reproducible regardless of the
// order in which subsystems consume randomness.
#pragma once

#include <cstdint>
#include <string_view>

namespace storsubsim::stats {

/// 64-bit mixing (splitmix64 finalizer). Used to derive stream keys.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30u)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27u)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31u);
}

/// FNV-1a over a string, then finalized with mix64. Constexpr so stream
/// labels can be hashed at compile time.
constexpr std::uint64_t hash_label(std::string_view label) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : label) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

/// A keyed random stream. `Rng` is cheap to construct and copy; treat it as a
/// value. Derive child streams with `fork` rather than sharing one stream
/// between components.
class Rng {
 private:
  /// PCG64 (XSL-RR variant) — O'Neill's permuted congruential generator.
  /// 128-bit state, 64-bit output. Small, fast, and passes BigCrush; we use it
  /// instead of std::mt19937_64 because its state is trivially seedable from a
  /// hash without warm-up bias and it supports cheap distinct streams.
  class Pcg64 {
   public:
    using result_type = std::uint64_t;

    /// Seeds state and stream selector. Any values are acceptable; the
    /// constructor scrambles them through the output function before first use.
    explicit Pcg64(std::uint64_t seed_hi = 0x853c49e6748fea9bULL,
                   std::uint64_t seed_lo = 0xda3e39cb94b95bdbULL,
                   std::uint64_t stream = 0x5851f42d4c957f2dULL) noexcept {
      state_hi_ = 0;
      state_lo_ = 0;
      // Stream selector must be odd; fold the requested stream into it.
      inc_hi_ = stream;
      inc_lo_ = (stream << 1u) | 1u;
      step();
      add128(state_hi_, state_lo_, seed_hi, seed_lo);
      step();
    }

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

    result_type operator()() noexcept {
      step();
      return output();
    }

   private:
    static void add128(std::uint64_t& hi, std::uint64_t& lo, std::uint64_t add_hi,
                       std::uint64_t add_lo) noexcept {
      const std::uint64_t old_lo = lo;
      lo += add_lo;
      hi += add_hi + (lo < old_lo ? 1u : 0u);
    }

    static void mul128(std::uint64_t& hi, std::uint64_t& lo, std::uint64_t m_hi,
                       std::uint64_t m_lo) noexcept {
      // 128x128 -> low 128 bits.
      const std::uint64_t a = lo >> 32u, b = lo & 0xffffffffULL;
      const std::uint64_t c = m_lo >> 32u, d = m_lo & 0xffffffffULL;
      const std::uint64_t bd = b * d;
      const std::uint64_t ad = a * d, bc = b * c;
      std::uint64_t mid = (bd >> 32u) + (ad & 0xffffffffULL) + (bc & 0xffffffffULL);
      const std::uint64_t new_lo = (mid << 32u) | (bd & 0xffffffffULL);
      std::uint64_t new_hi = a * c + (ad >> 32u) + (bc >> 32u) + (mid >> 32u);
      new_hi += hi * m_lo + lo * m_hi;
      hi = new_hi;
      lo = new_lo;
    }

    void step() noexcept {
      // Multiplier from the PCG reference implementation.
      mul128(state_hi_, state_lo_, 0x2360ed051fc65da4ULL, 0x4385df649fccf645ULL);
      add128(state_hi_, state_lo_, inc_hi_, inc_lo_);
    }

    result_type output() const noexcept {
      // XSL-RR: xor-fold the state and rotate by the top 6 bits.
      const std::uint64_t xored = state_hi_ ^ state_lo_;
      const unsigned rot = static_cast<unsigned>(state_hi_ >> 58u);
      return (xored >> rot) | (xored << ((64u - rot) & 63u));
    }

    std::uint64_t state_hi_, state_lo_;
    std::uint64_t inc_hi_, inc_lo_;
  };

 public:
  using result_type = Pcg64::result_type;

  explicit Rng(std::uint64_t seed = 0) noexcept
      : engine_(mix64(seed), mix64(seed ^ 0x6a09e667f3bcc909ULL),
                mix64(seed ^ 0xbb67ae8584caa73bULL)),
        root_(seed) {}

  Rng(std::uint64_t seed, std::uint64_t key) noexcept
      : engine_(mix64(seed ^ mix64(key)), mix64(seed + 0x9e3779b97f4a7c15ULL * key),
                mix64(key) | 1u),
        root_(seed) {}

  static constexpr result_type min() noexcept { return Pcg64::min(); }
  static constexpr result_type max() noexcept { return Pcg64::max(); }

  result_type operator()() noexcept { return engine_(); }

  /// Derives an independent child stream identified by `key`.
  [[nodiscard]] Rng fork(std::uint64_t key) noexcept {
    const std::uint64_t a = engine_();
    const std::uint64_t b = engine_();
    return Rng(mix64(a ^ mix64(key)), mix64(b + key));
  }

  /// Derives an independent child stream identified by a label and index,
  /// independent of how much randomness this stream has already consumed.
  [[nodiscard]] Rng stream(std::string_view label, std::uint64_t index = 0) const noexcept {
    return Rng(root_, mix64(hash_label(label) ^ mix64(index ^ 0xa5a5a5a5a5a5a5a5ULL)));
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(engine_() >> 11u) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1] — safe to pass to log().
  double uniform_pos() noexcept {
    return (static_cast<double>(engine_() >> 11u) + 1.0) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Uses Lemire's multiply-shift rejection method.
  std::uint64_t below(std::uint64_t n) noexcept {
    if (n == 0) return 0;
    std::uint64_t x = engine_();
    // Rejection to remove modulo bias.
    const std::uint64_t threshold = (0 - n) % n;
    while (x < threshold) x = engine_();
    return x % n;
  }

  bool bernoulli(double p) noexcept { return uniform() < p; }

 private:
  Pcg64 engine_;
  /// The root seed, so `stream` derivations are consumption-independent.
  std::uint64_t root_ = 0;
};

/// Builds the canonical root stream for a simulation run.
inline Rng make_root_rng(std::uint64_t seed) noexcept { return Rng(seed); }

}  // namespace storsubsim::stats
