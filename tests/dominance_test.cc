// 3D dominance (Theorem 6): the weight-augmented kd-tree as prioritized
// and max structure, plus both reductions.

#include "dominance/point3.h"

#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "core/sink.h"
#include "test_util.h"

namespace topk {
namespace {

using dominance::DominanceKdTree;
using dominance::DominanceProblem;
using dominance::Point3;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

std::vector<Point3> RandomPoints3(size_t n, Rng* rng) {
  std::vector<Point3> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = Point3{rng->NextDouble(), rng->NextDouble(), rng->NextDouble(),
                    rng->NextDouble() * 1000.0, i + 1};
  }
  return out;
}

std::vector<Point3> Collect(const DominanceKdTree& t, const Point3& q,
                            double tau) {
  std::vector<Point3> out;
  t.QueryPrioritized(q, tau, [&out](const Point3& e) {
    out.push_back(e);
    return true;
  });
  return out;
}

TEST(DominanceKdTree, EmptyInput) {
  DominanceKdTree t({});
  EXPECT_TRUE(Collect(t, {1, 1, 1}, kNegInf).empty());
  EXPECT_FALSE(t.QueryMax({1, 1, 1}).has_value());
}

TEST(DominanceKdTree, BoundaryInclusive) {
  DominanceKdTree t({{0.5, 0.5, 0.5, 1.0, 1}});
  EXPECT_EQ(Collect(t, {0.5, 0.5, 0.5}, kNegInf).size(), 1u);
  EXPECT_TRUE(Collect(t, {0.5, 0.5, 0.49}, kNegInf).empty());
  EXPECT_TRUE(Collect(t, {0.49, 0.5, 0.5}, kNegInf).empty());
}

TEST(DominanceKdTree, EarlyTermination) {
  Rng rng(1);
  DominanceKdTree t(RandomPoints3(2000, &rng));
  size_t seen = 0;
  t.QueryPrioritized({1, 1, 1}, kNegInf, [&seen](const Point3&) {
    ++seen;
    return seen < 9;
  });
  EXPECT_EQ(seen, 9u);
}

TEST(DominanceKdTree, MaxPruningIsSubstantial) {
  Rng rng(2);
  std::vector<Point3> data = RandomPoints3(1 << 15, &rng);
  DominanceKdTree t(data);
  QueryStats stats;
  auto got = t.QueryMax({0.9, 0.9, 0.9}, &stats);
  ASSERT_TRUE(got.has_value());
  EXPECT_LT(stats.nodes_visited, data.size() / 8);
}

struct Param {
  size_t n;
  uint64_t seed;
};

class DominanceSweep : public ::testing::TestWithParam<Param> {};

TEST_P(DominanceSweep, PrioritizedAndMaxMatchBrute) {
  const Param p = GetParam();
  Rng rng(p.seed);
  std::vector<Point3> data = RandomPoints3(p.n, &rng);
  DominanceKdTree t(data);
  for (int trial = 0; trial < 40; ++trial) {
    const Point3 q{rng.NextDouble() * 1.2, rng.NextDouble() * 1.2,
                   rng.NextDouble() * 1.2, 0, 0};
    const double tau_pool[] = {kNegInf, 100.0, 600.0, 950.0};
    const double tau = tau_pool[trial % 4];
    auto got = Collect(t, q, tau);
    auto want = test::BrutePrioritized<DominanceProblem>(data, q, tau);
    ASSERT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want));

    auto gmax = t.QueryMax(q);
    auto wmax = test::BruteMax<DominanceProblem>(data, q);
    ASSERT_EQ(gmax.has_value(), wmax.has_value());
    if (gmax.has_value()) {
      ASSERT_EQ(gmax->id, wmax->id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DominanceSweep,
                         ::testing::Values(Param{1, 1}, Param{2, 2},
                                           Param{50, 3}, Param{500, 4},
                                           Param{4000, 5}));

class DominanceTopKSweep : public ::testing::TestWithParam<Param> {};

TEST_P(DominanceTopKSweep, BothReductionsMatchBrute) {
  const Param p = GetParam();
  Rng rng(p.seed + 40);
  std::vector<Point3> data = RandomPoints3(p.n, &rng);
  CoreSetTopK<DominanceProblem, DominanceKdTree> thm1(data);
  SampledTopK<DominanceProblem, DominanceKdTree, DominanceKdTree> thm2(data);
  for (int trial = 0; trial < 10; ++trial) {
    const Point3 q{0.3 + rng.NextDouble() * 0.9,
                   0.3 + rng.NextDouble() * 0.9,
                   0.3 + rng.NextDouble() * 0.9, 0, 0};
    for (size_t k : {size_t{1}, size_t{10}, size_t{100}, p.n}) {
      auto want = test::BruteTopK<DominanceProblem>(data, q, k);
      ASSERT_EQ(test::IdsOf(topk::Query(thm1, q, k)), test::IdsOf(want))
          << "thm1 k=" << k;
      ASSERT_EQ(test::IdsOf(topk::Query(thm2, q, k)), test::IdsOf(want))
          << "thm2 k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DominanceTopKSweep,
                         ::testing::Values(Param{100, 1}, Param{1000, 2},
                                           Param{5000, 3}));

}  // namespace
}  // namespace topk
