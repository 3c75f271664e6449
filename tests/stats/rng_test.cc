// RNG determinism, stream independence, and uniformity sanity checks.
#include "stats/rng.h"

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "stats/summary.h"

namespace stats = storsubsim::stats;
using stats::Rng;

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, StreamsAreConsumptionIndependent) {
  // Deriving a labeled stream must not depend on how much the parent has
  // already consumed.
  Rng fresh = stats::make_root_rng(7);
  Rng consumed = stats::make_root_rng(7);
  for (int i = 0; i < 1000; ++i) (void)consumed();

  Rng s1 = fresh.stream("disk-chain", 3);
  Rng s2 = consumed.stream("disk-chain", 3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(s1(), s2());
  }
}

TEST(Rng, StreamsWithDifferentLabelsDiffer) {
  Rng root = stats::make_root_rng(7);
  Rng a = root.stream("alpha", 0);
  Rng b = root.stream("beta", 0);
  Rng c = root.stream("alpha", 1);
  EXPECT_NE(a(), b());
  EXPECT_NE(a(), c());
}

TEST(Rng, ForkProducesDistinctStreams) {
  Rng root(9);
  Rng a = root.fork(1);
  Rng b = root.fork(1);  // same key, later parent state -> different stream
  Rng c = root.fork(2);
  const auto va = a();
  EXPECT_NE(va, b());
  EXPECT_NE(va, c());
}

TEST(Rng, UniformInRange) {
  Rng rng(123);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform_pos();
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0);
    const double w = rng.uniform(5.0, 6.0);
    EXPECT_GE(w, 5.0);
    EXPECT_LT(w, 6.0);
  }
}

TEST(Rng, UniformMoments) {
  Rng rng(11);
  stats::Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(rng.uniform());
  EXPECT_NEAR(acc.mean(), 0.5, 0.005);
  EXPECT_NEAR(acc.variance(), 1.0 / 12.0, 0.003);
}

TEST(Rng, BelowIsUnbiased) {
  Rng rng(13);
  const std::uint64_t n = 7;
  std::vector<int> counts(n, 0);
  const int draws = 70000;
  for (int i = 0; i < draws; ++i) ++counts[rng.below(n)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), draws / 7.0, 5.0 * std::sqrt(draws / 7.0));
  }
}

TEST(Rng, BelowEdgeCases) {
  Rng rng(14);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BernoulliRate) {
  Rng rng(15);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Pcg64, NoShortCycles) {
  // Rng draws straight from its PCG64 engine.
  stats::Rng engine(1, 2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(engine());
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(HashLabel, StableAndDistinct) {
  constexpr auto a = stats::hash_label("disk-chain");
  constexpr auto b = stats::hash_label("disk-chains");
  static_assert(a != 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(stats::hash_label("disk-chain"), a);
}
