#include "core/lifetime.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "model/time.h"

namespace storsubsim::core {

std::vector<stats::SurvivalObservation> disk_lifetime_observations(const Source& source) {
  // Which disks had a disk failure (the event that ends a record's life;
  // other failure types leave the disk in place), one byte per disk id.
  std::vector<std::uint8_t> failed(source.disk_records(), 0);
  source.for_each_event([&](const EventRow& e) {
    if (e.type == model::FailureType::kDisk) failed[e.disk] = 1;
  });

  const double horizon = source.horizon_seconds();
  std::vector<stats::SurvivalObservation> out;
  out.reserve(source.disk_records());
  source.for_each_disk([&](const DiskRow& d) {
    const double start = std::max(0.0, d.install_time);
    const double end = std::min(horizon, d.remove_time);
    if (end <= start) return;  // never observed inside the window
    stats::SurvivalObservation obs;
    obs.duration = end - start;
    // Only an in-window removal caused by a disk failure counts as an
    // observed event; otherwise the record is censored at the horizon.
    obs.event = failed[d.id] != 0 && d.remove_time <= horizon;
    out.push_back(obs);
  });
  return out;
}

LifetimeReport disk_lifetime_report(const Source& source,
                                    std::vector<double> age_edges_days) {
  if (age_edges_days.empty()) {
    age_edges_days = {0.0, 30.0, 90.0, 180.0, 365.0, 730.0, 1340.0};
  }
  std::vector<double> edges_seconds;
  edges_seconds.reserve(age_edges_days.size());
  for (const double d : age_edges_days) edges_seconds.push_back(d * model::kSecondsPerDay);

  const std::vector<stats::SurvivalObservation> observations =
      disk_lifetime_observations(source);
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

}  // namespace storsubsim::core
