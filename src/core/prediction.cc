#include "core/prediction.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>

namespace storsubsim::core {

PredictionOutcome evaluate_predictor(const Source& source,
                                     std::span<const sim::PrecursorEvent> precursors,
                                     const PredictorConfig& config) {
  PredictionOutcome outcome;
  outcome.config = config;

  // Per-disk signal and failure streams (precursors arrive sorted; keep
  // order within each disk).
  std::vector<char> in_cohort(source.disk_records(), 0);
  source.for_each_disk([&](const DiskRow& d) { in_cohort[d.id] = 1; });
  std::unordered_map<std::uint32_t, std::vector<double>> signals;
  for (const auto& p : precursors) {
    if (p.kind != config.signal) continue;
    if (!p.disk.valid() || p.disk.value() >= in_cohort.size()) continue;
    if (in_cohort[p.disk.value()] == 0) continue;
    signals[p.disk.value()].push_back(p.time);
  }
  std::unordered_map<std::uint32_t, std::vector<double>> failures;
  source.for_each_event([&](const EventRow& e) {
    if (e.type != config.target) return;
    failures[e.disk].push_back(e.time);
    ++outcome.failures_total;
  });

  std::vector<double> leads;

  // Per-disk loop only bumps integer counters and appends to `leads`, which
  // is sorted before the median is taken — visit order cannot leak out.
  // storsim-lint: allow(unordered-iter) reason=order-insensitive counters; leads re-sorted before use
  for (auto& [disk, times] : signals) {
    std::sort(times.begin(), times.end());
    auto fit = failures.find(disk);
    const std::vector<double> no_failures;
    const std::vector<double>& disk_failures =
        fit == failures.end() ? no_failures : fit->second;

    // Generate alarms. Both families disarm after firing and re-arm once the
    // statistic falls back below threshold; a failure resets the state (the
    // disk was replaced / the incident resolved).
    std::vector<double> alarm_times;
    std::size_t next_failure = 0;
    if (config.kind == PredictorKind::kCountThreshold) {
      std::deque<double> window;
      bool armed = true;
      for (const double t : times) {
        while (next_failure < disk_failures.size() && disk_failures[next_failure] <= t) {
          window.clear();
          armed = true;
          ++next_failure;
        }
        window.push_back(t);
        while (!window.empty() && window.front() < t - config.window_seconds) {
          window.pop_front();
        }
        if (window.size() < config.threshold) {
          armed = true;
          continue;
        }
        if (armed) {
          alarm_times.push_back(t);
          armed = false;
        }
      }
    } else {
      // EWMA rate: each event bumps the estimate by 1/tau after decaying it
      // by exp(-dt/tau); the steady-state estimate for a Poisson stream of
      // rate r is r.
      const double tau = config.ewma_tau_days * 86400.0;
      const double threshold = config.rate_threshold_per_day / 86400.0;
      double rate = 0.0;
      double last = -1.0;
      bool armed = true;
      for (const double t : times) {
        while (next_failure < disk_failures.size() && disk_failures[next_failure] <= t) {
          rate = 0.0;
          last = -1.0;
          armed = true;
          ++next_failure;
        }
        if (last >= 0.0) rate *= std::exp(-(t - last) / tau);
        rate += 1.0 / tau;
        last = t;
        if (rate < threshold) {
          armed = true;
          continue;
        }
        if (armed) {
          alarm_times.push_back(t);
          armed = false;
        }
      }
    }

    // Score the alarms against the failure stream.
    outcome.alarms += alarm_times.size();
    for (const double alarm : alarm_times) {
      const auto it =
          std::lower_bound(disk_failures.begin(), disk_failures.end(), alarm);
      if (it != disk_failures.end() && *it - alarm <= config.horizon_seconds) {
        ++outcome.true_alarms;
      }
    }
    // A failure counts as predicted if any alarm fell in [T_f - horizon, T_f].
    for (const double failure : disk_failures) {
      const auto lo = std::lower_bound(alarm_times.begin(), alarm_times.end(),
                                       failure - config.horizon_seconds);
      if (lo != alarm_times.end() && *lo <= failure) {
        ++outcome.failures_predicted;
        leads.push_back(failure - *lo);
      }
    }
  }

  if (!leads.empty()) {
    std::sort(leads.begin(), leads.end());
    outcome.median_lead_seconds = leads[leads.size() / 2];
  }
  const double disk_years = source.disk_years().total;
  if (disk_years > 0.0) {
    outcome.false_alarms_per_disk_year =
        static_cast<double>(outcome.alarms - outcome.true_alarms) / disk_years;
  }
  return outcome;
}

std::vector<PredictionOutcome> threshold_sweep(
    const Source& source, std::span<const sim::PrecursorEvent> precursors,
    PredictorConfig base, std::span<const std::size_t> thresholds) {
  std::vector<PredictionOutcome> out;
  out.reserve(thresholds.size());
  for (const std::size_t k : thresholds) {
    base.threshold = k;
    out.push_back(evaluate_predictor(source, precursors, base));
  }
  return out;
}

}  // namespace storsubsim::core
