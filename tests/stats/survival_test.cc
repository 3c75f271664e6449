// Kaplan-Meier and actuarial hazard: textbook values, censoring behavior,
// recovery of known constant hazards, and bit identity with the textbook
// sort-every-subject fit.
#include "stats/survival.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "stats/distributions.h"
#include "stats/rng.h"

namespace stats = storsubsim::stats;

namespace {

std::vector<stats::SurvivalObservation> obs(std::initializer_list<std::pair<double, bool>> xs) {
  std::vector<stats::SurvivalObservation> out;
  for (const auto& [d, e] : xs) out.push_back({d, e});
  return out;
}

/// The textbook product-limit fit: sort every subject by duration and walk
/// the ties. The library fit sorts only the events; both must agree bit for
/// bit.
struct ReferenceFit {
  std::vector<stats::SurvivalPoint> points;
  std::vector<double> greenwood;
  std::size_t events = 0;
};

ReferenceFit sort_and_walk(std::span<const stats::SurvivalObservation> observations) {
  ReferenceFit fit;
  std::vector<stats::SurvivalObservation> sorted(observations.begin(), observations.end());
  for (const auto& o : sorted) {
    if (!(o.duration >= 0.0)) throw std::invalid_argument("negative duration");
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const stats::SurvivalObservation& a, const stats::SurvivalObservation& b) {
              return a.duration < b.duration;
            });
  double survival = 1.0;
  double greenwood = 0.0;
  std::size_t i = 0;
  std::size_t at_risk = sorted.size();
  while (i < sorted.size()) {
    const double t = sorted[i].duration;
    std::size_t events = 0;
    std::size_t leaving = 0;
    while (i < sorted.size() && sorted[i].duration == t) {
      if (sorted[i].event) ++events;
      ++leaving;
      ++i;
    }
    if (events > 0) {
      const double n = static_cast<double>(at_risk);
      const double d = static_cast<double>(events);
      survival *= (n - d) / n;
      if (n > d) greenwood += d / (n * (n - d));
      fit.points.push_back(stats::SurvivalPoint{t, survival, at_risk, events});
      fit.greenwood.push_back(greenwood);
      fit.events += events;
    }
    at_risk -= leaving;
  }
  return fit;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Points, event totals and Greenwood variances bit-identical to the
/// reference. `zero_sign_free`: a zero time may differ in sign only (the
/// reference's is whichever tied zero its sort put first).
void expect_same_fit(std::span<const stats::SurvivalObservation> data,
                     bool zero_sign_free = false) {
  const auto km = stats::KaplanMeier::fit(data);
  const ReferenceFit ref = sort_and_walk(data);
  EXPECT_EQ(km.subjects(), data.size());
  EXPECT_EQ(km.total_events(), ref.events);
  ASSERT_EQ(km.curve().size(), ref.points.size());
  for (std::size_t i = 0; i < ref.points.size(); ++i) {
    const auto& got = km.curve()[i];
    const auto& want = ref.points[i];
    if (zero_sign_free && want.time == 0.0) {
      EXPECT_EQ(got.time, 0.0) << "point " << i;
    } else {
      EXPECT_EQ(bits(got.time), bits(want.time)) << "point " << i;
    }
    EXPECT_EQ(bits(got.survival), bits(want.survival)) << "point " << i;
    EXPECT_EQ(got.at_risk, want.at_risk) << "point " << i;
    EXPECT_EQ(got.events, want.events) << "point " << i;
    const double s = want.survival;
    EXPECT_EQ(bits(km.greenwood_variance(got.time)), bits(s * s * ref.greenwood[i]))
        << "point " << i;
  }
}

}  // namespace

TEST(KaplanMeier, TextbookExample) {
  // Classic toy set: events at 6, 7; censored at 9; event at 10.
  // n=4: S(6)=3/4; S(7)=3/4 * 2/3 = 1/2; censor at 9; S(10)=1/2 * 0/1 = 0.
  const auto km = stats::KaplanMeier::fit(
      obs({{6.0, true}, {7.0, true}, {9.0, false}, {10.0, true}}));
  EXPECT_DOUBLE_EQ(km.survival(5.9), 1.0);
  EXPECT_DOUBLE_EQ(km.survival(6.0), 0.75);
  EXPECT_DOUBLE_EQ(km.survival(7.5), 0.5);
  EXPECT_DOUBLE_EQ(km.survival(9.5), 0.5);  // censoring does not drop S
  EXPECT_DOUBLE_EQ(km.survival(10.0), 0.0);
  EXPECT_DOUBLE_EQ(km.median(), 7.0);
  EXPECT_EQ(km.total_events(), 3u);
  EXPECT_EQ(km.subjects(), 4u);
}

TEST(KaplanMeier, AllCensored) {
  const auto km = stats::KaplanMeier::fit(obs({{5.0, false}, {8.0, false}}));
  EXPECT_DOUBLE_EQ(km.survival(100.0), 1.0);
  EXPECT_TRUE(std::isinf(km.median()));
  EXPECT_EQ(km.total_events(), 0u);
}

TEST(KaplanMeier, TiedEventTimes) {
  // Two events at t=3 among n=4: S(3) = 2/4.
  const auto km = stats::KaplanMeier::fit(
      obs({{3.0, true}, {3.0, true}, {5.0, false}, {6.0, false}}));
  EXPECT_DOUBLE_EQ(km.survival(3.0), 0.5);
  ASSERT_EQ(km.curve().size(), 1u);
  EXPECT_EQ(km.curve()[0].events, 2u);
  EXPECT_EQ(km.curve()[0].at_risk, 4u);
}

TEST(KaplanMeier, EmptyAndInvalid) {
  const auto km = stats::KaplanMeier::fit({});
  EXPECT_DOUBLE_EQ(km.survival(1.0), 1.0);
  EXPECT_THROW(stats::KaplanMeier::fit(obs({{-1.0, true}})), std::invalid_argument);
}

TEST(KaplanMeier, MatchesExponentialUnderHeavyCensoring) {
  // Exponential lifetimes censored at a fixed horizon: KM must still recover
  // S(t) = exp(-lambda t) on [0, horizon].
  stats::Rng rng(5);
  const double lambda = 1.0 / 400.0;
  const double horizon = 300.0;  // most subjects censored
  std::vector<stats::SurvivalObservation> data;
  for (int i = 0; i < 40000; ++i) {
    const double life = -std::log(rng.uniform_pos()) / lambda;
    data.push_back({std::min(life, horizon), life <= horizon});
  }
  const auto km = stats::KaplanMeier::fit(data);
  for (const double t : {50.0, 150.0, 250.0}) {
    EXPECT_NEAR(km.survival(t), std::exp(-lambda * t), 0.01) << "t=" << t;
  }
  EXPECT_GT(km.greenwood_variance(150.0), 0.0);
  EXPECT_LT(km.greenwood_variance(150.0), 1e-4);
}

TEST(HazardByAge, ConstantHazardRecovered) {
  stats::Rng rng(6);
  const double lambda = 1.0 / 200.0;
  std::vector<stats::SurvivalObservation> data;
  for (int i = 0; i < 50000; ++i) {
    const double life = -std::log(rng.uniform_pos()) / lambda;
    data.push_back({std::min(life, 500.0), life <= 500.0});
  }
  const std::vector<double> edges = {0.0, 100.0, 200.0, 400.0};
  const auto bins = stats::hazard_by_age(data, edges);
  ASSERT_EQ(bins.size(), 3u);
  for (const auto& bin : bins) {
    EXPECT_NEAR(bin.rate(), lambda, 0.1 * lambda)
        << "[" << bin.age_lo << "," << bin.age_hi << ")";
    EXPECT_GT(bin.exposure, 0.0);
  }
}

TEST(HazardByAge, DecreasingHazardDetected) {
  // Weibull shape 0.5: hazard falls with age.
  stats::Rng rng(7);
  const stats::Weibull d(0.5, 300.0);
  std::vector<stats::SurvivalObservation> data;
  for (int i = 0; i < 50000; ++i) {
    const double life = d.sample(rng);
    data.push_back({std::min(life, 1000.0), life <= 1000.0});
  }
  const std::vector<double> edges = {0.0, 50.0, 400.0, 1000.0};
  const auto bins = stats::hazard_by_age(data, edges);
  EXPECT_GT(bins[0].rate(), 1.5 * bins[1].rate());
  EXPECT_GT(bins[1].rate(), 1.2 * bins[2].rate());
}

TEST(HazardByAge, ExposureArithmetic) {
  // One subject observed to 150 with an event: contributes 100 to [0,100)
  // and 50 to [100,200), and its event lands in the second bin.
  const auto data = obs({{150.0, true}});
  const std::vector<double> edges = {0.0, 100.0, 200.0};
  const auto bins = stats::hazard_by_age(data, edges);
  EXPECT_DOUBLE_EQ(bins[0].exposure, 100.0);
  EXPECT_EQ(bins[0].events, 0u);
  EXPECT_DOUBLE_EQ(bins[1].exposure, 50.0);
  EXPECT_EQ(bins[1].events, 1u);
}

TEST(HazardByAge, RejectsBadEdges) {
  const auto data = obs({{1.0, true}});
  EXPECT_THROW(stats::hazard_by_age(data, std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(stats::hazard_by_age(data, std::vector<double>{2.0, 1.0}),
               std::invalid_argument);
}

TEST(KaplanMeierDifferential, RandomHeavyTies) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    stats::Rng rng(seed);
    std::vector<stats::SurvivalObservation> data;
    for (int i = 0; i < 20000; ++i) {
      // Few distinct durations: every grid time is heavily tied, with
      // events and censored subjects mixed at each.
      const double d = std::floor(rng.uniform(0.0, 60.0));
      data.push_back({d, rng.bernoulli(0.3)});
    }
    SCOPED_TRACE(seed);
    expect_same_fit(data);
  }
}

TEST(KaplanMeierDifferential, RandomContinuousDurations) {
  stats::Rng rng(14);
  std::vector<stats::SurvivalObservation> data;
  for (int i = 0; i < 50000; ++i) {
    const double life = -std::log(rng.uniform_pos()) * 400.0;
    // Censored at a per-subject horizon, so censoring times interleave
    // with the event times; a quarter of the events are repeated exactly.
    const double horizon = rng.uniform(0.0, 600.0);
    data.push_back({std::min(life, horizon), life <= horizon});
    if (life <= horizon && rng.bernoulli(0.25)) data.push_back({life, true});
  }
  expect_same_fit(data);
}

TEST(KaplanMeierDifferential, CrowdedAndSpreadGrids) {
  // One far event time squeezes every other grid time into the first
  // bucket of the index; a denormal-wide grid cannot be bucketed at all.
  std::vector<stats::SurvivalObservation> crowded;
  for (int i = 0; i < 2000; ++i) {
    crowded.push_back({i * 1e-3, i % 3 == 0});
    crowded.push_back({i * 1e-3 + 5e-4, false});
  }
  crowded.push_back({1e12, true});
  crowded.push_back({2e12, false});
  expect_same_fit(crowded);
  const double tiny = std::numeric_limits<double>::denorm_min();
  expect_same_fit(obs({{0.0, true}, {tiny, true}, {tiny, false}, {0.0, false}, {1.0, false}}));
  expect_same_fit(obs({{0.0, true}, {tiny, true}, {2 * tiny, true}, {tiny, false}}));
}

TEST(KaplanMeierDifferential, SignedZeroDurations) {
  // All zeros of one sign: the point's time carries that sign.
  expect_same_fit(obs({{-0.0, true}, {-0.0, false}, {-0.0, true}, {2.0, true}, {3.0, false}}));
  expect_same_fit(obs({{0.0, true}, {0.0, false}, {1.0, true}}));
  // Mixed signs: one point at zero with every tied subject counted.
  const auto mixed = obs({{0.0, true}, {-0.0, false}, {-0.0, true}, {0.0, false}, {4.0, true}});
  expect_same_fit(mixed, /*zero_sign_free=*/true);
  const auto km = stats::KaplanMeier::fit(mixed);
  ASSERT_EQ(km.curve().size(), 2u);
  EXPECT_TRUE(std::signbit(km.curve()[0].time));  // -0.0 wins among tied events
  EXPECT_EQ(km.curve()[0].at_risk, 5u);
  EXPECT_EQ(km.curve()[0].events, 2u);
}

TEST(KaplanMeierDifferential, InfiniteDurations) {
  const double inf = std::numeric_limits<double>::infinity();
  // Censored at +inf: at risk at every event time, never an event.
  expect_same_fit(obs({{inf, false}, {1.0, true}, {inf, false}, {2.0, true}, {1.5, false}}));
  // Events at +inf: the last point sits at +inf.
  expect_same_fit(obs({{inf, true}, {1.0, true}, {inf, false}, {inf, true}, {0.5, false}}));
  expect_same_fit(obs({{inf, true}, {inf, false}}));
  expect_same_fit(obs({{inf, true}, {3.0, false}, {7.0, true}, {9.0, false}}));
}

TEST(KaplanMeierDifferential, DegenerateCohorts) {
  expect_same_fit(obs({{5.0, false}, {1.0, false}, {5.0, false}}));         // all censored
  expect_same_fit(obs({{5.0, true}, {1.0, true}, {5.0, true}, {2.0, true}}));  // all events
  expect_same_fit(obs({{3.0, true}}));                                     // one subject
  expect_same_fit(obs({{3.0, false}}));
  expect_same_fit(obs({{0.0, true}, {0.0, false}, {0.0, true}}));          // all zero
  expect_same_fit({});
}

TEST(KaplanMeierDifferential, NaNStillThrows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(stats::KaplanMeier::fit(obs({{1.0, true}, {nan, false}})),
               std::invalid_argument);
  EXPECT_THROW(stats::KaplanMeier::fit(obs({{nan, true}})), std::invalid_argument);
  EXPECT_THROW(stats::KaplanMeier::fit(obs({{2.0, false}, {-0.5, false}})),
               std::invalid_argument);
}

TEST(HazardByAge, BitIdenticalToEveryBandWalk) {
  // The textbook walk visits every band for every subject; exposure sums
  // and event counts must match it bit for bit, including durations on the
  // edges, past the last edge, infinite and NaN.
  stats::Rng rng(15);
  std::vector<stats::SurvivalObservation> data;
  for (int i = 0; i < 30000; ++i) {
    data.push_back({rng.uniform(0.0, 1500.0), rng.bernoulli(0.1)});
  }
  for (const double edge : {0.0, 30.0, 90.0, 730.0, 1340.0}) data.push_back({edge, true});
  data.push_back({std::numeric_limits<double>::infinity(), false});
  data.push_back({std::numeric_limits<double>::quiet_NaN(), true});
  const std::vector<double> edges = {0.0, 30.0, 90.0, 180.0, 365.0, 730.0, 1340.0};

  std::vector<stats::HazardBin> want(edges.size() - 1);
  for (std::size_t b = 0; b < want.size(); ++b) {
    want[b].age_lo = edges[b];
    want[b].age_hi = edges[b + 1];
  }
  for (const auto& o : data) {
    for (auto& bin : want) {
      const double hi = std::min(bin.age_hi, o.duration);
      if (hi > bin.age_lo) bin.exposure += hi - bin.age_lo;
      if (o.event && o.duration >= bin.age_lo && o.duration < bin.age_hi) ++bin.events;
    }
  }

  const auto got = stats::hazard_by_age(data, edges);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t b = 0; b < want.size(); ++b) {
    EXPECT_EQ(bits(got[b].exposure), bits(want[b].exposure)) << "band " << b;
    EXPECT_EQ(got[b].events, want[b].events) << "band " << b;
  }
}
