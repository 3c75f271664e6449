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

/// The shared gap walk: buckets the events by scope with a counting pass,
/// orders each scope's few events by (time, disk, type) and pools
/// inter-arrival gaps per series. The order is total, so the gaps do not
/// depend on the order the events were collected in; both the Dataset and
/// the store entry points feed the same ScopedEvent set, so their results
/// are identical.
BurstinessResult pooled_gaps(const std::vector<ScopedEvent>& events, Scope scope) {
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

BurstinessResult gaps_of(const Dataset& dataset, Scope scope) {
  // Bucket events by scope id.
  std::vector<ScopedEvent> events;
  events.reserve(dataset.events().size());
  for (const auto& e : dataset.events()) {
    const auto& disk = dataset.disk_of(e);
    std::uint32_t scope_id;
    if (scope == Scope::kShelf) {
      scope_id = disk.shelf.value();
    } else {
      if (!disk.raid_group.valid()) continue;  // spare not in any group
      scope_id = disk.raid_group.value();
    }
    events.push_back(ScopedEvent{e.time, scope_id, e.disk.value(),
                                 static_cast<std::uint8_t>(model::index_of(e.type))});
  }
  return pooled_gaps(events, scope);
}

BurstinessResult gaps_of(const store::ShardStore& shards, Scope scope) {
  // The store's event columns already carry the shelf/RAID-group join, so
  // bucketing needs no inventory lookups; each shard's local ids are rebased
  // through the manifest bases. pooled_gaps orders every scope's events
  // totally by (time, disk, type), and a scope never spans shards, so the
  // collection order is immaterial.
  std::vector<ScopedEvent> events;
  events.reserve(static_cast<std::size_t>(shards.manifest().events));
  for (const auto cls : model::kAllSystemClasses) {
    for (std::size_t s = 0; s < shards.shard_count(); ++s) {
      const store::EventView& view = shards.shard(s).events(cls);
      for (std::size_t i = 0; i < view.size(); ++i) {
        std::uint32_t scope_id;
        if (scope == Scope::kShelf) {
          scope_id = static_cast<std::uint32_t>(shards.global_shelf(s, view.shelf[i]));
        } else {
          if (!model::RaidGroupId(view.raid_group[i]).valid()) continue;
          scope_id =
              static_cast<std::uint32_t>(shards.global_raid_group(s, view.raid_group[i]));
        }
        events.push_back(
            ScopedEvent{view.time[i], scope_id,
                        static_cast<std::uint32_t>(shards.global_disk(s, view.disk[i])),
                        view.type[i]});
      }
    }
  }
  return pooled_gaps(events, scope);
}

}  // namespace

BurstinessResult time_between_failures(const Source& source, Scope scope) {
  if (const Dataset* d = source.dataset()) return gaps_of(*d, scope);
  return gaps_of(*source.shards(), scope);
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
