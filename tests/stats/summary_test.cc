// Streaming accumulators: Welford correctness, merge associativity, weights.
#include "stats/summary.h"

#include <vector>

#include <gtest/gtest.h>

#include "stats/rng.h"

namespace stats = storsubsim::stats;

TEST(Accumulator, BasicMoments) {
  stats::Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, EmptyAndSingle) {
  stats::Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  acc.add(3.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, MergeEqualsSequential) {
  stats::Rng rng(5);
  std::vector<double> xs(1000);
  for (auto& x : xs) x = rng.uniform(-5.0, 17.0);

  stats::Accumulator whole;
  for (const double x : xs) whole.add(x);

  stats::Accumulator left, right;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < 300 ? left : right).add(xs[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Accumulator, MergeWithEmpty) {
  stats::Accumulator a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean_before = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean_before);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean_before);
}

TEST(Accumulator, NumericalStabilityLargeOffset) {
  // Classic catastrophic-cancellation case: large mean, small variance.
  stats::Accumulator acc;
  const double offset = 1e12;
  for (const double x : {offset + 1.0, offset + 2.0, offset + 3.0}) acc.add(x);
  EXPECT_NEAR(acc.variance(), 1.0, 1e-6);
}

TEST(SpanHelpers, MatchAccumulator) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(stats::mean_of(xs), 3.0);
}
