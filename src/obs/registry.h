// Process-wide metric registry: counters, high-water gauges, and power-of-two
// histograms with a lock-free fast path.
//
// Design (docs/OBSERVABILITY.md):
//  - Handles (Counter/Gauge/Histogram) are cheap value types holding a slot
//    index into fixed-size per-thread shards. Registration takes a mutex once;
//    every subsequent add() is a relaxed atomic on the calling thread's own
//    shard — no contention, no allocation, no fences on the hot path.
//  - snapshot() merges shards deterministically: counters sum, gauges take the
//    max, histogram buckets sum. Addition over unsigned integers is
//    commutative, so the merged values are independent of thread count and
//    scheduling — which is what lets the obs determinism test pin snapshots
//    across --threads 1/4/8.
//  - Metrics whose *values* depend on scheduling (queue depths, shard counts)
//    are registered Stability::kSchedulingDependent so deterministic views can
//    exclude them. Gauges are always scheduling-dependent.
//
// The registry never publishes timing; spans (obs/span.h) own the clock.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace storsubsim::obs {

/// Scalar metric slots available per thread shard (counters + gauges).
inline constexpr std::uint32_t kMaxScalars = 192;
/// Histogram slots available per thread shard.
inline constexpr std::uint32_t kMaxHistograms = 32;
/// Power-of-two buckets per histogram: bucket b counts values in
/// [2^(b-1), 2^b), bucket 0 counts zero.
inline constexpr std::uint32_t kHistogramBuckets = 64;

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

enum class Stability : std::uint8_t {
  /// Value is a pure function of (seed, scale, inputs) — identical at any
  /// thread count. The obs determinism test covers exactly these.
  kDeterministic,
  /// Value depends on scheduling or thread count (queue depths, shard
  /// fan-out); excluded from deterministic views.
  kSchedulingDependent,
};

/// Monotone event counter. Default-constructed handles are inert no-ops.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) noexcept;

 private:
  friend class Registry;
  explicit Counter(std::uint32_t slot) noexcept : slot_(slot) {}
  std::uint32_t slot_ = UINT32_MAX;
};

/// High-water-mark gauge (e.g. max queue depth). Always scheduling-dependent.
class Gauge {
 public:
  Gauge() = default;
  void update_max(std::uint64_t value) noexcept;

 private:
  friend class Registry;
  explicit Gauge(std::uint32_t slot) noexcept : slot_(slot) {}
  std::uint32_t slot_ = UINT32_MAX;
};

/// Power-of-two histogram of non-negative integer samples (bytes, rows, ...).
class Histogram {
 public:
  Histogram() = default;
  void observe(std::uint64_t value) noexcept;

 private:
  friend class Registry;
  Histogram(std::uint32_t scalar_slot, std::uint32_t hist_slot) noexcept
      : scalar_slot_(scalar_slot), hist_slot_(hist_slot) {}
  std::uint32_t scalar_slot_ = UINT32_MAX;  ///< observation count lives here
  std::uint32_t hist_slot_ = UINT32_MAX;
};

/// One merged metric in a snapshot.
struct MetricValue {
  std::string name;
  Kind kind = Kind::kCounter;
  Stability stability = Stability::kDeterministic;
  std::uint64_t value = 0;  ///< counter sum / gauge max / histogram count
  std::uint64_t sum = 0;    ///< histogram only: sum of observed samples
  std::vector<std::uint64_t> buckets;  ///< histogram only: trailing zeros trimmed
};

/// Point-in-time merge of all shards, sorted by metric name.
struct Snapshot {
  std::vector<MetricValue> metrics;

  /// Human-readable listing (one metric per line). With
  /// `deterministic_only`, scheduling-dependent metrics are skipped — this is
  /// the view the determinism test pins across thread counts.
  std::string to_text(bool deterministic_only = false) const;
  /// JSON array for embedding in run manifests.
  std::string to_json() const;
  const MetricValue* find(std::string_view name) const noexcept;
};

/// The process-wide registry. Obtain via obs::registry().
class Registry {
 public:
  /// Registers (or finds) a metric by name. Re-registering an existing name
  /// returns the original handle; names are process-global. When slots are
  /// exhausted the returned handle is an inert no-op.
  Counter counter(std::string_view name,
                  Stability stability = Stability::kDeterministic);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name,
                      Stability stability = Stability::kDeterministic);

  Snapshot snapshot() const;

  /// Zeroes every shard cell (registrations survive). Test isolation only —
  /// concurrent adds during reset() land in an unspecified epoch.
  void reset() noexcept;

 private:
  Registry() = default;
  friend Registry& registry() noexcept;
};

/// The singleton. Never destroyed (worker threads may outlive static
/// destruction order), so handles stay valid for the process lifetime.
Registry& registry() noexcept;

}  // namespace storsubsim::obs
