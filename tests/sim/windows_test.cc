// Window generation and modulated Poisson sampling: rates, duty cycles,
// and exactness of the piecewise-constant sampler.
#include "sim/windows.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "stats/summary.h"

namespace sim = storsubsim::sim;
namespace model = storsubsim::model;
using storsubsim::stats::Rng;

TEST(GenerateWindows, EmptyForDegenerateProcesses) {
  Rng rng(1);
  EXPECT_TRUE(sim::generate_windows({0.0, 100.0, 0.5, 5.0}, 1e8, rng).empty());
  EXPECT_TRUE(sim::generate_windows({1.0, 100.0, 0.5, 1.0}, 1e8, rng).empty());
  EXPECT_TRUE(sim::generate_windows({1.0, 0.0, 0.5, 5.0}, 1e8, rng).empty());
}

TEST(GenerateWindows, SortedNonOverlappingWithinHorizon) {
  Rng rng(2);
  const sim::WindowProcess process{5.0, 10.0 * model::kSecondsPerDay, 0.8, 12.0};
  const double horizon = model::from_years(3.0);
  const auto windows = sim::generate_windows(process, horizon, rng);
  ASSERT_FALSE(windows.empty());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_LT(windows[i].start, windows[i].end);
    EXPECT_LE(windows[i].end, horizon);
    EXPECT_DOUBLE_EQ(windows[i].multiplier, 12.0);
    if (i > 0) EXPECT_GE(windows[i].start, windows[i - 1].end);
  }
}

TEST(GenerateWindows, DutyCycleMatchesExpectation) {
  Rng rng(3);
  const sim::WindowProcess process{2.0, 5.0 * model::kSecondsPerDay, 0.5, 8.0};
  const double horizon = model::from_years(200.0);  // long horizon averages out
  const auto windows = sim::generate_windows(process, horizon, rng);
  double covered = 0.0;
  for (const auto& w : windows) covered += w.end - w.start;
  // Skipped overlapping arrivals make the empirical duty cycle slightly
  // lower than the ideal; accept a broad band.
  const double duty_cycle =
      process.per_year * process.mean_duration_seconds / model::kSecondsPerYear;
  EXPECT_NEAR(covered / horizon, duty_cycle, 0.4 * duty_cycle);
}

TEST(MultiplierAt, LookupSemantics) {
  const std::vector<sim::Window> windows = {{10.0, 20.0, 5.0}, {50.0, 60.0, 7.0}};
  EXPECT_DOUBLE_EQ(sim::multiplier_at(windows, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(sim::multiplier_at(windows, 10.0), 5.0);  // inclusive start
  EXPECT_DOUBLE_EQ(sim::multiplier_at(windows, 19.999), 5.0);
  EXPECT_DOUBLE_EQ(sim::multiplier_at(windows, 20.0), 1.0);  // exclusive end
  EXPECT_DOUBLE_EQ(sim::multiplier_at(windows, 55.0), 7.0);
  EXPECT_DOUBLE_EQ(sim::multiplier_at(windows, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(sim::multiplier_at(std::vector<sim::Window>{}, 42.0), 1.0);
}

TEST(ModulatedSampler, HomogeneousRateMatches) {
  Rng rng(4);
  const double rate = 1e-5;
  const double horizon = 1e7;
  sim::ModulatedPoissonSampler sampler(rate, {}, horizon);
  std::size_t events = 0;
  double t = 0.0;
  while (auto next = sampler.sample_after(t, rng)) {
    t = *next;
    ++events;
  }
  // Expect rate * horizon = 100 events; 5-sigma band.
  EXPECT_NEAR(static_cast<double>(events), 100.0, 50.0);
}

TEST(ModulatedSampler, ZeroRateNeverFires) {
  Rng rng(5);
  sim::ModulatedPoissonSampler sampler(0.0, {}, 1e9);
  EXPECT_FALSE(sampler.sample_after(0.0, rng).has_value());
}

TEST(ModulatedSampler, RespectsHorizonAndStart) {
  Rng rng(6);
  sim::ModulatedPoissonSampler sampler(1e-3, {}, 1000.0);
  double t = 500.0;
  while (auto next = sampler.sample_after(t, rng)) {
    EXPECT_GT(*next, t);
    EXPECT_LT(*next, 1000.0);
    t = *next;
  }
}

TEST(ModulatedSampler, WindowBoostsLocalRate) {
  // One window multiplying the rate by 50 in [1e6, 2e6): events inside the
  // window should outnumber events in an equally long quiet stretch ~50:1.
  const std::vector<sim::Window> windows = {{1e6, 2e6, 50.0}};
  const double rate = 2e-6;
  std::size_t in_window = 0, outside = 0;
  for (int rep = 0; rep < 50; ++rep) {
    Rng rng(100 + static_cast<std::uint64_t>(rep));
    sim::ModulatedPoissonSampler sampler(rate, windows, 3e6);
    double t = 0.0;
    while (auto next = sampler.sample_after(t, rng)) {
      t = *next;
      if (t >= 1e6 && t < 2e6) {
        ++in_window;
      } else {
        ++outside;
      }
    }
  }
  // Expected: in-window 50 * rate * 1e6 * reps = 5000; outside 2 * rate * 1e6
  // * reps = 200.
  EXPECT_NEAR(static_cast<double>(in_window), 5000.0, 400.0);
  EXPECT_NEAR(static_cast<double>(outside), 200.0, 80.0);
}

TEST(ModulatedSampler, ExactAcrossWindowBoundaries) {
  // Integrated-hazard correctness: the CDF of the first event from t=0 with
  // a window [a, b) x M is 1 - exp(-Lambda(t)); check the event count in
  // disjoint segments matches each segment's expected hazard.
  const std::vector<sim::Window> windows = {{100.0, 200.0, 10.0}};
  const double rate = 1e-3;
  // Expected hazard: [0,100): 0.1, [100,200): 1.0, [200,1000): 0.8.
  storsubsim::stats::Accumulator seg1, seg2, seg3;
  for (int rep = 0; rep < 4000; ++rep) {
    Rng rng(5000 + static_cast<std::uint64_t>(rep));
    sim::ModulatedPoissonSampler sampler(rate, windows, 1000.0);
    int c1 = 0, c2 = 0, c3 = 0;
    double t = 0.0;
    while (auto next = sampler.sample_after(t, rng)) {
      t = *next;
      if (t < 100.0) {
        ++c1;
      } else if (t < 200.0) {
        ++c2;
      } else {
        ++c3;
      }
    }
    seg1.add(c1);
    seg2.add(c2);
    seg3.add(c3);
  }
  EXPECT_NEAR(seg1.mean(), 0.1, 0.03);
  EXPECT_NEAR(seg2.mean(), 1.0, 0.08);
  EXPECT_NEAR(seg3.mean(), 0.8, 0.08);
}

TEST(WindowProcess, AverageMultiplierFormula) {
  const sim::WindowProcess p{2.0, 0.05 * model::kSecondsPerYear, 0.5, 11.0};
  // Duty cycle 2 / year * 0.05 year = 0.1.
  EXPECT_NEAR(p.average_multiplier(), 1.0 + 0.1 * 10.0, 1e-12);
}
