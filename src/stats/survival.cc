#include "stats/survival.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace storsubsim::stats {

KaplanMeier KaplanMeier::fit(std::span<const SurvivalObservation> observations) {
  KaplanMeier km;
  km.n_ = observations.size();

  // The event grid: the distinct event durations, ascending, and the event
  // count at each. Only events are sorted; censored subjects are counted
  // into the grid below. -0.0 and +0.0 are one time; the grid keeps -0.0 if
  // any event there has it, so the point's time does not depend on the sort.
  std::vector<double> times;
  for (const auto& o : observations) {
    if (!(o.duration >= 0.0)) {
      throw std::invalid_argument("KaplanMeier: durations must be nonnegative");
    }
    if (o.event) times.push_back(o.duration);
  }
  if (times.empty()) return km;
  std::sort(times.begin(), times.end());
  std::vector<std::size_t> events;
  std::size_t m = 0;
  for (const double t : times) {
    if (m > 0 && t == times[m - 1]) {
      ++events[m - 1];
      if (std::signbit(t)) times[m - 1] = t;
      continue;
    }
    times[m++] = t;
    events.push_back(1);
  }
  times.resize(m);

  // slot(d) = number of grid times <= d: the subject is at risk at grid
  // times [0, slot(d)). Durations at or past the last grid time (+inf
  // included) and before the first take the two compares up front. The rest
  // go through a bucket index over the finite grid range [times[0],
  // times[top]]: the bucket function is monotone in its argument, so every
  // grid time in an earlier bucket is < d and every one in a later bucket is
  // > d, and only d's own bucket is searched (a short scan, or a binary
  // search when the grid crowds into few buckets).
  const std::size_t top = (m > 1 && std::isinf(times[m - 1])) ? m - 2 : m - 1;
  std::size_t buckets = 2 * std::max<std::size_t>(top, 1);
  const double lo = times[0];
  double scale = static_cast<double>(buckets) / (times[top] - lo);
  if (!(scale < std::numeric_limits<double>::max())) {  // one grid time, or a denormal range
    buckets = 1;
    scale = 0.0;
  }
  const auto bucket_of = [&](double x) {
    const auto b = static_cast<std::size_t>(static_cast<std::int64_t>((x - lo) * scale));
    return std::min(buckets - 1, b);
  };
  std::vector<std::size_t> first(buckets + 1, 0);  // first grid index of each bucket
  if (scale > 0.0) {
    for (std::size_t k = 0; k <= top; ++k) ++first[bucket_of(times[k]) + 1];
    for (std::size_t b = 0; b < buckets; ++b) first[b + 1] += first[b];
  } else {
    first[1] = top + 1;
  }

  constexpr std::size_t kScanLimit = 8;
  std::vector<std::size_t> leaving(m + 1, 0);  // subjects by slot
  for (const auto& o : observations) {
    const double d = o.duration;
    std::size_t slot;
    if (d >= times[top]) {
      slot = d >= times[m - 1] ? m : top + 1;
    } else if (d < lo) {
      slot = 0;
    } else {
      const std::size_t b = bucket_of(d);
      slot = first[b];
      const std::size_t end = first[b + 1];
      if (end - slot > kScanLimit) {
        slot = static_cast<std::size_t>(
            std::upper_bound(times.begin() + static_cast<std::ptrdiff_t>(slot),
                             times.begin() + static_cast<std::ptrdiff_t>(end), d) -
            times.begin());
      } else {
        while (slot < end && times[slot] <= d) ++slot;
      }
    }
    ++leaving[slot];
  }

  // The product-limit walk over the grid: at-risk counts are suffix sums of
  // `leaving`, so each step sees the same integers, in the same order, as a
  // walk over every subject sorted by duration.
  km.points_.reserve(m);
  km.greenwood_.reserve(m);
  double survival = 1.0;
  double greenwood = 0.0;
  std::size_t at_risk = km.n_ - leaving[0];
  for (std::size_t j = 0; j < m; ++j) {
    const double n = static_cast<double>(at_risk);
    const double d = static_cast<double>(events[j]);
    survival *= (n - d) / n;
    if (n > d) greenwood += d / (n * (n - d));
    km.points_.push_back(SurvivalPoint{times[j], survival, at_risk, events[j]});
    km.greenwood_.push_back(greenwood);
    km.events_ += events[j];
    at_risk -= leaving[j + 1];
  }
  return km;
}

double KaplanMeier::survival(double t) const {
  // Last point with time <= t.
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](double x, const SurvivalPoint& p) { return x < p.time; });
  if (it == points_.begin()) return 1.0;
  return (it - 1)->survival;
}

double KaplanMeier::median() const {
  for (const auto& p : points_) {
    if (p.survival <= 0.5) return p.time;
  }
  return std::numeric_limits<double>::infinity();
}

double KaplanMeier::greenwood_variance(double t) const {
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](double x, const SurvivalPoint& p) { return x < p.time; });
  if (it == points_.begin()) return 0.0;
  const auto idx = static_cast<std::size_t>(it - points_.begin()) - 1;
  const double s = points_[idx].survival;
  return s * s * greenwood_[idx];
}

std::vector<HazardBin> hazard_by_age(std::span<const SurvivalObservation> observations,
                                     std::span<const double> edges) {
  if (edges.size() < 2) throw std::invalid_argument("hazard_by_age: need >= 2 edges");
  for (std::size_t i = 1; i < edges.size(); ++i) {
    if (!(edges[i] > edges[i - 1])) {
      throw std::invalid_argument("hazard_by_age: edges must be increasing");
    }
  }
  std::vector<HazardBin> bins(edges.size() - 1);
  for (std::size_t b = 0; b < bins.size(); ++b) {
    bins[b].age_lo = edges[b];
    bins[b].age_hi = edges[b + 1];
  }
  for (const auto& o : observations) {
    for (auto& bin : bins) {
      const double lo = bin.age_lo;
      const double hi = std::min(bin.age_hi, o.duration);
      if (hi > lo) bin.exposure += hi - lo;
      if (o.event && o.duration >= bin.age_lo && o.duration < bin.age_hi) ++bin.events;
    }
  }
  return bins;
}

}  // namespace storsubsim::stats
