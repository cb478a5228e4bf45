#include "util/rng.h"

#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace sds {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBoundedStaysInBound) {
  Rng rng(3);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(5);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(10)];
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(RngTest, NextIntCoversInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = rng.NextInt(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
    EXPECT_FALSE(rng.NextBernoulli(-0.5));
    EXPECT_TRUE(rng.NextBernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng b = a.Fork();
  // The fork and the parent should not produce identical sequences.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, MixIsDeterministicAndSpreads) {
  EXPECT_EQ(Rng::Mix(123), Rng::Mix(123));
  EXPECT_NE(Rng::Mix(1), Rng::Mix(2));
}

// Golden raw stream. Every workload is a function of these draws, so the
// values pin the generator and its helpers exactly (recorded before the hot
// path moved inline into the header).
TEST(RngTest, GoldenSequence) {
  Rng next(2024);
  EXPECT_EQ(next.Next(), 0x0e48715a13d7772eull);
  EXPECT_EQ(next.Next(), 0xc837f3ee8a7a1065ull);
  EXPECT_EQ(next.Next(), 0x1272314b15ee5001ull);
  EXPECT_EQ(next.Next(), 0x28e323a6abe2a46bull);

  Rng unit(2024);
  EXPECT_EQ(unit.NextDouble(), 0x1.c90e2b427aeep-5);
  EXPECT_EQ(unit.NextDouble(), 0x1.906fe7dd14f42p-1);
  EXPECT_EQ(unit.NextDouble(), 0x1.272314b15ee5p-4);

  Rng bounded(2024);
  EXPECT_EQ(bounded.NextBounded(1000), 55u);
  EXPECT_EQ(bounded.NextBounded(1000), 782u);
  EXPECT_EQ(bounded.NextBounded(1000), 72u);
  EXPECT_EQ(bounded.NextBounded(1000), 159u);
  // A bound just above 2^63 rejects almost half of all draws: these four
  // values take 11 draws, so the rejection loop runs.
  const uint64_t big = (1ull << 63) + 1;
  EXPECT_EQ(bounded.NextBounded(big), 2258546705306200698ull);
  EXPECT_EQ(bounded.NextBounded(big), 6644008486317064688ull);
  EXPECT_EQ(bounded.NextBounded(big), 8134989128028724035ull);
  EXPECT_EQ(bounded.NextBounded(big), 3378749892732358586ull);
  EXPECT_EQ(bounded.Next(), 0xc5fe2bd783c51d0full);

  // p <= 0 and p >= 1 consume no draw; NaN consumes one and returns false.
  Rng coin(2024);
  EXPECT_FALSE(coin.NextBernoulli(0.0));
  EXPECT_TRUE(coin.NextBernoulli(1.0));
  EXPECT_FALSE(coin.NextBernoulli(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(coin.NextBernoulli(0.5));
  EXPECT_TRUE(coin.NextBernoulli(0.5));
  EXPECT_TRUE(coin.NextBernoulli(0.5));
  EXPECT_FALSE(coin.NextBernoulli(0.5));
  EXPECT_EQ(coin.Next(), 0x3eaff0863ccf54f5ull);
  Rng fresh(2024);
  for (int i = 0; i < 5; ++i) fresh.Next();
  EXPECT_EQ(fresh.Next(), 0x3eaff0863ccf54f5ull);
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == UINT64_MAX);
  Rng rng(1);
  EXPECT_NE(rng(), rng());
}

}  // namespace
}  // namespace sds
