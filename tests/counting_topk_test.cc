// The Section 2 counting-based reduction and its merge-sort-tree
// counter.

#include "core/counting_topk.h"

#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"
#include "range1d/count_tree.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::CountTree;
using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

size_t BruteCount(const std::vector<Point1D>& data, const Range1D& q,
                  double tau) {
  size_t c = 0;
  for (const Point1D& p : data) {
    if (Range1DProblem::Matches(q, p) && MeetsThreshold(p, tau)) ++c;
  }
  return c;
}

TEST(CountTree, EmptyAndSingle) {
  CountTree empty({});
  EXPECT_EQ(empty.Count({0, 1}, kNegInf), 0u);
  CountTree one({{0.5, 3.0, 1}});
  EXPECT_EQ(one.Count({0, 1}, kNegInf), 1u);
  EXPECT_EQ(one.Count({0, 1}, 3.0), 1u);
  EXPECT_EQ(one.Count({0, 1}, 3.1), 0u);
  EXPECT_EQ(one.Count({0.6, 1}, kNegInf), 0u);
  EXPECT_EQ(one.Count({0.7, 0.2}, kNegInf), 0u);  // inverted range
}

struct Param {
  size_t n;
  uint64_t seed;
  bool clumped;
};

class CountSweep : public ::testing::TestWithParam<Param> {};

TEST_P(CountSweep, MatchesBruteForce) {
  const Param p = GetParam();
  Rng rng(p.seed);
  std::vector<Point1D> data = p.clumped
                                  ? test::ClumpedPoints1D(p.n, &rng)
                                  : test::RandomPoints1D(p.n, &rng);
  CountTree tree(data);
  const double xmax = p.clumped ? static_cast<double>(p.n) : 1.0;
  for (int trial = 0; trial < 60; ++trial) {
    double a = rng.NextDouble() * xmax, b = rng.NextDouble() * xmax;
    if (a > b) std::swap(a, b);
    const double tau_pool[] = {kNegInf, 10.0, 250.0, 600.0, 990.0};
    const double tau = tau_pool[trial % 5];
    ASSERT_EQ(tree.Count({a, b}, tau), BruteCount(data, {a, b}, tau));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CountSweep,
    ::testing::Values(Param{1, 1, false}, Param{2, 2, false},
                      Param{100, 3, false}, Param{2000, 4, false},
                      Param{1000, 5, true}));

using Baseline =
    CountingTopK<Range1DProblem, PrioritySearchTree, CountTree>;

TEST(CountingTopK, EmptyAndKZero) {
  Baseline b({});
  EXPECT_TRUE(topk::Query(b, {0, 1}, 3).empty());
  Rng rng(6);
  Baseline b2(test::RandomPoints1D(64, &rng));
  EXPECT_TRUE(topk::Query(b2, {0, 1}, 0).empty());
}

TEST(CountingTopK, MatchesBruteForce) {
  Rng rng(7);
  for (size_t n : {size_t{1}, size_t{100}, size_t{5000}}) {
    std::vector<Point1D> data = test::RandomPoints1D(n, &rng);
    Baseline b(data);
    for (int trial = 0; trial < 15; ++trial) {
      double a = rng.NextDouble(), c = rng.NextDouble();
      if (a > c) std::swap(a, c);
      for (size_t k : {size_t{1}, size_t{7}, size_t{200}, n}) {
        auto got = topk::Query(b, {a, c}, k);
        auto want = test::BruteTopK<Range1DProblem>(data, {a, c}, k);
        ASSERT_EQ(test::IdsOf(got), test::IdsOf(want))
            << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(CountingTopK, DuplicateWeights) {
  Rng rng(8);
  std::vector<Point1D> data = test::ClumpedPoints1D(2000, &rng);
  Baseline b(data);
  for (size_t k : {size_t{1}, size_t{50}, size_t{2000}}) {
    auto got = topk::Query(b, {0.0, 2000.0}, k);
    auto want = test::BruteTopK<Range1DProblem>(data, {0.0, 2000.0}, k);
    ASSERT_EQ(test::IdsOf(got), test::IdsOf(want));
  }
}

TEST(CountingTopK, CountProbesAreLogarithmic) {
  Rng rng(9);
  Baseline b(test::RandomPoints1D(1 << 14, &rng));
  QueryStats stats;
  topk::Query(b, {0.0, 1.0}, 10, &stats);
  EXPECT_LE(stats.max_queries, 20u);  // ~log2(n) counting probes
}

}  // namespace
}  // namespace topk
