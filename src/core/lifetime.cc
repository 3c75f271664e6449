#include "core/lifetime.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "model/time.h"

namespace storsubsim::core {

namespace {

std::vector<stats::SurvivalObservation> observations_of(const Dataset& dataset) {
  // Which disks had a disk failure (the event that ends a record's life;
  // other failure types leave the disk in place), one byte per disk id.
  const auto& inv = dataset.inventory();
  std::vector<std::uint8_t> failed(inv.disks.size(), 0);
  for (const auto& e : dataset.events()) {
    if (e.type == model::FailureType::kDisk) failed[e.disk.value()] = 1;
  }

  std::vector<stats::SurvivalObservation> out;
  out.reserve(inv.disks.size());
  for (const auto& d : inv.disks) {
    if (!dataset.system_selected(d.system)) continue;
    const double start = std::max(0.0, d.install_time);
    const double end = std::min(inv.horizon_seconds, d.remove_time);
    if (end <= start) continue;  // never observed inside the window
    stats::SurvivalObservation obs;
    obs.duration = end - start;
    // Only an in-window removal caused by a disk failure counts as an
    // observed event; otherwise the record is censored at the horizon.
    obs.event = failed[d.id.value()] != 0 && d.remove_time <= inv.horizon_seconds;
    out.push_back(obs);
  }
  return out;
}

LifetimeReport report_from_observations(
    const std::vector<stats::SurvivalObservation>& observations,
    std::vector<double> age_edges_days) {
  if (age_edges_days.empty()) {
    age_edges_days = {0.0, 30.0, 90.0, 180.0, 365.0, 730.0, 1340.0};
  }
  std::vector<double> edges_seconds;
  edges_seconds.reserve(age_edges_days.size());
  for (const double d : age_edges_days) edges_seconds.push_back(d * model::kSecondsPerDay);

  LifetimeReport report;
  report.disks = observations.size();
  report.survival = stats::KaplanMeier::fit(observations);
  report.failures = report.survival.total_events();
  report.hazard_by_age = stats::hazard_by_age(observations, edges_seconds);
  report.censored_fraction =
      observations.empty()
          ? 0.0
          : 1.0 - static_cast<double>(report.failures) /
                      static_cast<double>(observations.size());
  return report;
}

std::vector<stats::SurvivalObservation> observations_of(const store::ShardStore& shards) {
  // The monolithic disk order is [every shard's initial disks, in shard
  // order] then [every shard's replacement disks, in shard order]
  // (docs/STORE.md), so two shard-major passes — initial rows first, then
  // replacement rows — reproduce the single-file observation sequence
  // exactly (a single file counts every disk as initial, so its second pass
  // is empty). Events reference shard-local disk ids, so each shard gets its
  // own failed-disk byte map.
  std::vector<std::vector<std::uint8_t>> failed(shards.shard_count());
  for (std::size_t s = 0; s < shards.shard_count(); ++s) {
    const store::EventStore& store = shards.shard(s);
    failed[s].assign(store.topology(store::ColumnId::kDiskInstall)->as_f64().size(), 0);
    for (const auto cls : model::kAllSystemClasses) {
      const store::EventView& view = store.events(cls);
      for (std::size_t i = 0; i < view.size(); ++i) {
        if (view.type[i] == static_cast<std::uint8_t>(model::FailureType::kDisk)) {
          failed[s][view.disk[i]] = 1;
        }
      }
    }
  }

  std::vector<stats::SurvivalObservation> out;
  out.reserve(static_cast<std::size_t>(shards.manifest().disks_total));
  for (const bool replacement_pass : {false, true}) {
    for (std::size_t s = 0; s < shards.shard_count(); ++s) {
      const store::EventStore& store = shards.shard(s);
      const double horizon = store.header().horizon_seconds;
      const auto install = store.topology(store::ColumnId::kDiskInstall)->as_f64();
      const auto remove = store.topology(store::ColumnId::kDiskRemove)->as_f64();
      const auto initial = static_cast<std::size_t>(shards.info(s).disks_initial);
      const std::size_t begin = replacement_pass ? initial : 0;
      const std::size_t end = replacement_pass ? install.size() : initial;
      for (std::size_t i = begin; i < end; ++i) {
        const double start = std::max(0.0, install[i]);
        const double stop = std::min(horizon, remove[i]);
        if (stop <= start) continue;  // never observed inside the window
        stats::SurvivalObservation obs;
        obs.duration = stop - start;
        obs.event = failed[s][i] != 0 && remove[i] <= horizon;
        out.push_back(obs);
      }
    }
  }
  return out;
}

}  // namespace

std::vector<stats::SurvivalObservation> disk_lifetime_observations(const Source& source) {
  if (const Dataset* d = source.dataset()) return observations_of(*d);
  return observations_of(*source.shards());
}

LifetimeReport disk_lifetime_report(const Source& source,
                                    std::vector<double> age_edges_days) {
  return report_from_observations(disk_lifetime_observations(source),
                                  std::move(age_edges_days));
}

}  // namespace storsubsim::core
