#include "common/kselect.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/scratch.h"
#include "common/weighted.h"
#include "range1d/point1d.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::Point1D;

TEST(WeightOrder, HeavierThanIsStrictTotalOrder) {
  Point1D a{0, 1.0, 1}, b{0, 2.0, 2}, c{0, 2.0, 3};
  EXPECT_TRUE(HeavierThan(b, a));
  EXPECT_FALSE(HeavierThan(a, b));
  // Equal weights break ties by id.
  EXPECT_TRUE(HeavierThan(c, b));
  EXPECT_FALSE(HeavierThan(b, c));
  EXPECT_FALSE(HeavierThan(b, b));
}

TEST(WeightOrder, MeetsThresholdIsInclusive) {
  Point1D a{0, 5.0, 1};
  EXPECT_TRUE(MeetsThreshold(a, 5.0));
  EXPECT_TRUE(MeetsThreshold(a, 4.9));
  EXPECT_FALSE(MeetsThreshold(a, 5.1));
}

TEST(KSelect, EmptyPool) {
  std::vector<Point1D> pool;
  SelectTopK(&pool, 5);
  EXPECT_TRUE(pool.empty());
}

TEST(KSelect, KZeroClearsPool) {
  std::vector<Point1D> pool{{0, 1, 1}, {0, 2, 2}};
  SelectTopK(&pool, 0);
  EXPECT_TRUE(pool.empty());
}

TEST(KSelect, KLargerThanPoolKeepsAllSorted) {
  std::vector<Point1D> pool{{0, 1, 1}, {0, 3, 2}, {0, 2, 3}};
  SelectTopK(&pool, 10);
  ASSERT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool[0].id, 2u);
  EXPECT_EQ(pool[1].id, 3u);
  EXPECT_EQ(pool[2].id, 1u);
}

TEST(KSelect, SelectsExactTopKDescending) {
  Rng rng(7);
  for (size_t n : {1u, 2u, 17u, 100u, 1000u}) {
    std::vector<Point1D> data = test::RandomPoints1D(n, &rng);
    for (size_t k : {size_t{1}, n / 2, n}) {
      std::vector<Point1D> expected = data;
      std::sort(expected.begin(), expected.end(), ByWeightDesc());
      if (expected.size() > k) expected.resize(k);

      std::vector<Point1D> pool = data;
      SelectTopK(&pool, k);
      EXPECT_EQ(test::IdsOf(pool), test::IdsOf(expected));
    }
  }
}

TEST(KSelect, UnorderedVariantKeepsSameSet) {
  Rng rng(11);
  std::vector<Point1D> data = test::RandomPoints1D(500, &rng);
  std::vector<Point1D> sorted = data;
  SelectTopK(&sorted, 40);
  std::vector<Point1D> unordered = data;
  SelectTopKUnordered(&unordered, 40);
  EXPECT_EQ(test::SortedIdsOf(sorted), test::SortedIdsOf(unordered));
}

TEST(KSelect, DuplicateWeightsResolvedById) {
  Rng rng(13);
  std::vector<Point1D> data = test::ClumpedPoints1D(300, &rng);
  std::vector<Point1D> pool = data;
  SelectTopK(&pool, 25);
  std::vector<Point1D> expected = data;
  std::sort(expected.begin(), expected.end(), ByWeightDesc());
  expected.resize(25);
  EXPECT_EQ(test::IdsOf(pool), test::IdsOf(expected));
}

// Weights that stress SortHeaviestFirst's radix key: few distinct
// values (long equal-weight runs, ordered by id), negative weights,
// -0.0 beside +0.0, +-infinity and denormals. Ids are shuffled so pool
// order says nothing about id order.
std::vector<Point1D> EdgeWeightPoints1D(size_t n, Rng* rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  const double special[] = {0.0,   -0.0,   kInf,      -kInf, kTiny,
                            -kTiny, 3 * kTiny, -2.5, 1e300, -1e-310};
  std::vector<Point1D> pts(n);
  for (size_t i = 0; i < n; ++i) {
    pts[i].x = rng->NextDouble();
    pts[i].weight =
        rng->Bernoulli(0.5)
            ? special[rng->Below(std::size(special))]
            : static_cast<double>(static_cast<int64_t>(rng->Below(65)) - 32);
    pts[i].id = i + 1;
  }
  for (size_t i = n; i > 1; --i) {
    std::swap(pts[i - 1].id, pts[rng->Below(i)].id);
  }
  return pts;
}

// Every pool shape the ordering tests run, at one size.
std::vector<std::vector<Point1D>> OrderingPools(size_t n, Rng* rng) {
  return {test::RandomPoints1D(n, rng), test::ClumpedPoints1D(n, rng),
          EdgeWeightPoints1D(n, rng)};
}

std::vector<Point1D> StdSorted(std::vector<Point1D> pool, size_t k) {
  std::sort(pool.begin(), pool.end(), ByWeightDesc());
  if (pool.size() > k) pool.resize(k);
  return pool;
}

// Both sides of the std::sort -> radix crossover, and a 2^17 pool (the
// deepk-parallel shape), against std::sort(ByWeightDesc).
const size_t kOrderingSizes[] = {kRadixSortMin - 1, kRadixSortMin,
                                 kRadixSortMin + 1, size_t{1} << 17};

TEST(SortHeaviestFirst, MatchesStdSortAcrossTheCrossover) {
  Rng rng(17);
  std::vector<RadixItem> items;
  std::vector<Point1D> gather;
  for (const size_t n : kOrderingSizes) {
    for (const std::vector<Point1D>& data : OrderingPools(n, &rng)) {
      std::vector<Point1D> pool = data;
      SortHeaviestFirst(&pool, &items, &gather);
      EXPECT_EQ(test::IdsOf(pool), test::IdsOf(StdSorted(data, n)))
          << "n = " << n;
    }
  }
}

// The radix path itself below the crossover, down to the trivial sizes.
TEST(SortHeaviestFirst, RadixPathExactAtAnySize) {
  Rng rng(19);
  std::vector<RadixItem> items;
  std::vector<Point1D> gather;
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                         size_t{17}, size_t{300}}) {
    for (const std::vector<Point1D>& data : OrderingPools(n, &rng)) {
      std::vector<Point1D> pool = data;
      kselect_internal::RadixSortHeaviestFirst(&pool, &items, &gather);
      EXPECT_EQ(test::IdsOf(pool), test::IdsOf(StdSorted(data, n)))
          << "n = " << n;
    }
  }
}

// -0.0 and +0.0 are one weight: their order is the id order alone.
TEST(SortHeaviestFirst, SignedZerosOrderById) {
  std::vector<Point1D> pool(kRadixSortMin);
  for (size_t i = 0; i < pool.size(); ++i) {
    pool[i] = {0, i % 2 == 0 ? 0.0 : -0.0, i + 1};
  }
  std::vector<RadixItem> items;
  std::vector<Point1D> gather;
  SortHeaviestFirst(&pool, &items, &gather);
  for (size_t i = 0; i < pool.size(); ++i) {
    ASSERT_EQ(pool[i].id, pool.size() - i);
  }
}

// Every SelectTopK form, on both selection strategies (partial_sort at
// small k, nth_element + SortHeaviestFirst otherwise) and at k >= n.
TEST(KSelect, SelectTopKMatchesStdSortAcrossTheCrossover) {
  Rng rng(23);
  Scratch scratch;
  std::vector<RadixItem> items;
  std::vector<Point1D> gather;
  for (const size_t n : kOrderingSizes) {
    for (const std::vector<Point1D>& data : OrderingPools(n, &rng)) {
      const std::vector<uint64_t> sorted = test::IdsOf(StdSorted(data, n));
      for (const size_t k : {size_t{2}, size_t{64}, kRadixSortMin - 1,
                             kRadixSortMin, n / 2, n, n + 1}) {
        const std::vector<uint64_t> want(
            sorted.begin(),
            sorted.begin() + static_cast<std::ptrdiff_t>(std::min(k, n)));
        std::vector<Point1D> pool = data;
        SelectTopK(&pool, k, &items, &gather);
        EXPECT_EQ(test::IdsOf(pool), want) << "n = " << n << ", k = " << k;
        pool = data;
        SelectTopK(&pool, k, &scratch);
        EXPECT_EQ(test::IdsOf(pool), want) << "n = " << n << ", k = " << k;
        pool = data;
        SelectTopK(&pool, k);
        EXPECT_EQ(test::IdsOf(pool), want) << "n = " << n << ", k = " << k;
      }
    }
  }
  EXPECT_EQ(scratch.outstanding(), 0u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(7), 7u);
    EXPECT_EQ(rng.Below(1), 0u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(4);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.Bernoulli(0.5) ? 1 : 0;
  EXPECT_GT(heads, 4700);
  EXPECT_LT(heads, 5300);
}

}  // namespace
}  // namespace topk
