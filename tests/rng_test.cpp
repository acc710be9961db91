// Unit tests for the deterministic RNG.
#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace hoplite {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBoundedWithinBound) {
  Rng rng(11);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedCoversAllValues) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1'000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(17);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const std::int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng(23);
  double sum = 0;
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / kSamples, 2.0, 0.05);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  rng.Shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(RngTest, ShuffleChangesOrderWithHighProbability) {
  Rng rng(37);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  const auto original = v;
  rng.Shuffle(v);
  EXPECT_NE(v, original);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.Fork();
  // The child should not replay the parent's stream.
  Rng parent_copy(41);
  (void)parent_copy.NextU64();  // advance past the fork draw
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.NextU64() == parent_copy.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

}  // namespace
}  // namespace hoplite
