#include "obs/registry.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <memory>
#include <mutex>

#include "obs/json.h"

namespace storsubsim::obs {

namespace {

struct HistCells {
  std::atomic<std::uint64_t> sum{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
};

/// One thread's private cells. Shards are owned by the registry state and are
/// never freed, so a worker thread that exits leaves its tallies behind for
/// later snapshots (counts must not vanish with the pool).
struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxScalars> scalar{};
  std::array<HistCells, kMaxHistograms> hist{};
};

struct MetricInfo {
  std::string name;
  Kind kind = Kind::kCounter;
  Stability stability = Stability::kDeterministic;
  std::uint32_t scalar_slot = 0;
  std::uint32_t hist_slot = 0;  ///< histograms only
};

struct State {
  std::mutex mutex;
  std::vector<MetricInfo> metrics;           // registration order
  std::vector<std::unique_ptr<Shard>> shards;  // all threads ever seen
  std::uint32_t next_scalar = 0;
  std::uint32_t next_hist = 0;
};

/// Leaked on purpose: worker threads (and static destructors that observe
/// metrics) may run after any particular static's destructor; keeping the
/// state reachable through a static pointer makes every handle valid for the
/// whole process lifetime without destruction-order hazards.
State& state() noexcept {
  static State* const s = new State();
  return *s;
}

thread_local Shard* tl_shard = nullptr;

Shard& this_shard() {
  if (tl_shard == nullptr) {
    State& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.shards.push_back(std::make_unique<Shard>());
    tl_shard = s.shards.back().get();
  }
  return *tl_shard;
}

/// Power-of-two bucket of a sample: 0 -> 0, otherwise 1 + floor(log2(v)).
std::uint32_t bucket_of(std::uint64_t value) noexcept {
  if (value == 0) return 0;
  const auto b = static_cast<std::uint32_t>(std::bit_width(value));
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

const MetricInfo* find_metric(const State& s, std::string_view name) {
  for (const auto& m : s.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void append_metric_text(std::string& out, const MetricValue& m) {
  out += m.name;
  out += ' ';
  out += std::to_string(m.value);
  if (m.kind == Kind::kHistogram) {
    out += " sum=";
    out += std::to_string(m.sum);
    out += " buckets=[";
    bool first = true;
    for (std::size_t b = 0; b < m.buckets.size(); ++b) {
      if (m.buckets[b] == 0) continue;
      if (!first) out += ',';
      first = false;
      out += std::to_string(b);
      out += ':';
      out += std::to_string(m.buckets[b]);
    }
    out += ']';
  }
  out += '\n';
}

}  // namespace

void Counter::add(std::uint64_t n) noexcept {
  if (slot_ == UINT32_MAX) return;
  this_shard().scalar[slot_].fetch_add(n, std::memory_order_relaxed);
}

void Gauge::update_max(std::uint64_t value) noexcept {
  if (slot_ == UINT32_MAX) return;
  // The cell is only ever written by its owning thread; a plain
  // read-compare-store is race-free and cheaper than a CAS loop.
  std::atomic<std::uint64_t>& cell = this_shard().scalar[slot_];
  if (value > cell.load(std::memory_order_relaxed)) {
    cell.store(value, std::memory_order_relaxed);
  }
}

void Histogram::observe(std::uint64_t value) noexcept {
  if (scalar_slot_ == UINT32_MAX) return;
  Shard& shard = this_shard();
  shard.scalar[scalar_slot_].fetch_add(1, std::memory_order_relaxed);
  HistCells& h = shard.hist[hist_slot_];
  h.sum.fetch_add(value, std::memory_order_relaxed);
  h.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
}

Counter Registry::counter(std::string_view name, Stability stability) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (const MetricInfo* existing = find_metric(s, name)) {
    return Counter(existing->kind == Kind::kCounter ? existing->scalar_slot
                                                    : UINT32_MAX);
  }
  if (s.next_scalar >= kMaxScalars) return Counter();  // inert: out of slots
  MetricInfo info;
  info.name = std::string(name);
  info.kind = Kind::kCounter;
  info.stability = stability;
  info.scalar_slot = s.next_scalar++;
  s.metrics.push_back(info);
  return Counter(info.scalar_slot);
}

Gauge Registry::gauge(std::string_view name) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (const MetricInfo* existing = find_metric(s, name)) {
    return Gauge(existing->kind == Kind::kGauge ? existing->scalar_slot
                                                : UINT32_MAX);
  }
  if (s.next_scalar >= kMaxScalars) return Gauge();
  MetricInfo info;
  info.name = std::string(name);
  info.kind = Kind::kGauge;
  // A high-water mark is a property of one particular interleaving.
  info.stability = Stability::kSchedulingDependent;
  info.scalar_slot = s.next_scalar++;
  s.metrics.push_back(info);
  return Gauge(info.scalar_slot);
}

Histogram Registry::histogram(std::string_view name, Stability stability) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (const MetricInfo* existing = find_metric(s, name)) {
    return existing->kind == Kind::kHistogram
               ? Histogram(existing->scalar_slot, existing->hist_slot)
               : Histogram();
  }
  if (s.next_scalar >= kMaxScalars || s.next_hist >= kMaxHistograms) {
    return Histogram();
  }
  MetricInfo info;
  info.name = std::string(name);
  info.kind = Kind::kHistogram;
  info.stability = stability;
  info.scalar_slot = s.next_scalar++;
  info.hist_slot = s.next_hist++;
  s.metrics.push_back(info);
  return Histogram(info.scalar_slot, info.hist_slot);
}

Snapshot Registry::snapshot() const {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  Snapshot snap;
  snap.metrics.reserve(s.metrics.size());
  for (const auto& info : s.metrics) {
    MetricValue m;
    m.name = info.name;
    m.kind = info.kind;
    m.stability = info.stability;
    if (info.kind == Kind::kHistogram) {
      m.buckets.assign(kHistogramBuckets, 0);
    }
    for (const auto& shard : s.shards) {
      const std::uint64_t cell =
          shard->scalar[info.scalar_slot].load(std::memory_order_relaxed);
      if (info.kind == Kind::kGauge) {
        m.value = std::max(m.value, cell);
      } else {
        m.value += cell;
      }
      if (info.kind == Kind::kHistogram) {
        const HistCells& h = shard->hist[info.hist_slot];
        m.sum += h.sum.load(std::memory_order_relaxed);
        for (std::uint32_t b = 0; b < kHistogramBuckets; ++b) {
          m.buckets[b] += h.buckets[b].load(std::memory_order_relaxed);
        }
      }
    }
    while (!m.buckets.empty() && m.buckets.back() == 0) m.buckets.pop_back();
    snap.metrics.push_back(std::move(m));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) { return a.name < b.name; });
  return snap;
}

void Registry::reset() noexcept {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (const auto& shard : s.shards) {
    for (auto& cell : shard->scalar) cell.store(0, std::memory_order_relaxed);
    for (auto& h : shard->hist) {
      h.sum.store(0, std::memory_order_relaxed);
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    }
  }
}

Registry& registry() noexcept {
  static Registry* const r = new Registry();
  return *r;
}

std::string Snapshot::to_text(bool deterministic_only) const {
  std::string out;
  for (const auto& m : metrics) {
    if (deterministic_only && m.stability != Stability::kDeterministic) continue;
    append_metric_text(out, m);
  }
  return out;
}

std::string Snapshot::to_json() const {
  std::string out = "[";
  bool first = true;
  for (const auto& m : metrics) {
    if (!first) out += ',';
    first = false;
    out += "\n    {\"name\": \"";
    out += json_escape(m.name);
    out += "\", \"kind\": \"";
    out += m.kind == Kind::kCounter ? "counter"
           : m.kind == Kind::kGauge ? "gauge"
                                    : "histogram";
    out += "\", \"stability\": \"";
    out += m.stability == Stability::kDeterministic ? "deterministic" : "scheduling-dependent";
    out += "\", \"value\": ";
    out += std::to_string(m.value);
    if (m.kind == Kind::kHistogram) {
      out += ", \"sum\": ";
      out += std::to_string(m.sum);
      out += ", \"buckets\": [";
      for (std::size_t b = 0; b < m.buckets.size(); ++b) {
        if (b != 0) out += ',';
        out += std::to_string(m.buckets[b]);
      }
      out += ']';
    }
    out += '}';
  }
  out += "\n  ]";
  return out;
}

const MetricValue* Snapshot::find(std::string_view name) const noexcept {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace storsubsim::obs
