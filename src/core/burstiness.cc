#include "core/burstiness.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/scope_buckets.h"

namespace storsubsim::core {

namespace {

struct ScopedEvent {
  double time;
  std::uint32_t scope_id;
  std::uint32_t disk;
  std::uint8_t type;
};

}  // namespace

/// Buckets the events by scope with a counting pass, orders each scope's few
/// events by (time, disk, type) and pools inter-arrival gaps per series. The
/// order is total, so the gaps do not depend on the order the Source walks
/// the events in.
BurstinessResult time_between_failures(const Source& source, Scope scope) {
  std::vector<ScopedEvent> events;
  events.reserve(source.event_records());
  source.for_each_event([&](const EventRow& e) {
    const std::uint32_t scope_id = e.scope_id(scope);
    if (scope_id == kNoScope) return;  // spare not in any group
    events.push_back(ScopedEvent{e.time, scope_id, e.disk,
                                 static_cast<std::uint8_t>(model::index_of(e.type))});
  });
  BurstinessResult result;
  result.scope = scope;
  ScopeBuckets<ScopedEvent> buckets = bucket_by_scope(events);

  // Walk each scope's stream once per series. `last_time`/`last_disk` track
  // the previously kept event of the series within the current scope.
  struct SeriesState {
    double last_time = -1.0;
    std::uint32_t last_disk = 0;
    bool has_last = false;
  };
  for (std::size_t sc = 0; sc < buckets.scopes(); ++sc) {
    const std::span<ScopedEvent> stream = buckets.scope(sc);
    if (stream.size() < 2) continue;  // no gap without a second event
    std::sort(stream.begin(), stream.end(), [](const ScopedEvent& a, const ScopedEvent& b) {
      if (a.time != b.time) return a.time < b.time;
      if (a.disk != b.disk) return a.disk < b.disk;
      return a.type < b.type;
    });
    std::array<SeriesState, kSeriesCount> state{};
    for (const ScopedEvent& ev : stream) {
      for (const std::size_t series : {static_cast<std::size_t>(ev.type), kOverallSeries}) {
        SeriesState& s = state[series];
        if (s.has_last && s.last_disk == ev.disk) {
          // Duplicate: same disk reporting again — refresh the anchor time
          // so a later different-disk failure measures from the latest
          // report, but record no gap.
          s.last_time = ev.time;
          continue;
        }
        if (s.has_last) {
          result.gaps[series].push_back(ev.time - s.last_time);
        }
        s.last_time = ev.time;
        s.last_disk = ev.disk;
        s.has_last = true;
      }
    }
  }
  return result;
}

stats::Ecdf BurstinessResult::ecdf(std::size_t series) const {
  return stats::Ecdf(gaps[series]);
}

double BurstinessResult::fraction_within(std::size_t series, double seconds) const {
  const auto& g = gaps[series];
  if (g.empty()) return 0.0;
  std::size_t n = 0;
  for (const double x : g) {
    if (x <= seconds) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(g.size());
}

}  // namespace storsubsim::core
