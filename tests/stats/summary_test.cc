// Streaming accumulators: Welford correctness and numerical stability.
#include "stats/summary.h"

#include <vector>

#include <gtest/gtest.h>

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
