// The [28] baseline reduction (binary search on the weight threshold):
// exactness, including the duplicate-weight edge where count can jump by
// more than one per threshold step.

#include "core/binary_search_topk.h"

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;

using Baseline = BinarySearchTopK<Range1DProblem, PrioritySearchTree>;

TEST(BinarySearchTopK, EmptyInput) {
  Baseline b({});
  EXPECT_TRUE(topk::Query(b, {0, 1}, 3).empty());
}

TEST(BinarySearchTopK, KZero) {
  Rng rng(1);
  Baseline b(test::RandomPoints1D(64, &rng));
  EXPECT_TRUE(topk::Query(b, {0, 1}, 0).empty());
}

TEST(BinarySearchTopK, ProbesAreLogarithmic) {
  Rng rng(2);
  Baseline b(test::RandomPoints1D(1 << 14, &rng));
  QueryStats stats;
  topk::Query(b, {0.0, 1.0}, 10, &stats);
  // log2(2^14) = 14 probes + 1 final fetch, with slack.
  EXPECT_LE(stats.prioritized_queries, 20u);
}

struct Param {
  size_t n;
  uint64_t seed;
  bool clumped;
};

class BaselineSweep : public ::testing::TestWithParam<Param> {};

TEST_P(BaselineSweep, MatchesBruteForce) {
  const Param p = GetParam();
  Rng rng(p.seed);
  std::vector<Point1D> data = p.clumped
                                  ? test::ClumpedPoints1D(p.n, &rng)
                                  : test::RandomPoints1D(p.n, &rng);
  Baseline b(data);
  const double xmax = p.clumped ? static_cast<double>(p.n) : 1.0;
  for (int trial = 0; trial < 10; ++trial) {
    double a = rng.NextDouble() * xmax;
    double c = rng.NextDouble() * xmax;
    if (a > c) std::swap(a, c);
    for (size_t k : {size_t{1}, size_t{5}, size_t{100}, p.n / 2, p.n}) {
      if (k == 0) continue;
      auto got = topk::Query(b, {a, c}, k);
      auto want = test::BruteTopK<Range1DProblem>(data, {a, c}, k);
      ASSERT_EQ(test::IdsOf(got), test::IdsOf(want))
          << "n=" << p.n << " k=" << k << " clumped=" << p.clumped;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineSweep,
    ::testing::Values(Param{1, 1, false}, Param{2, 2, false},
                      Param{100, 3, false}, Param{1000, 4, false},
                      Param{10000, 5, false}, Param{500, 6, true},
                      Param{4000, 7, true}));

}  // namespace
}  // namespace topk
