// 3D halfspace reporting over the kd-tree (Theorem 3's d >= 3 story)
// plus degenerate-input stress for every kd-tree-backed problem.

#include "halfspace/halfspace3d.h"

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "circle/circular.h"
#include "common/random.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "dominance/point3.h"
#include "test_util.h"

namespace topk {
namespace {

using dominance::Point3;
using halfspace::Halfspace3;
using halfspace::Halfspace3KdTree;
using halfspace::Halfspace3Problem;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

std::vector<Point3> RandomPoints3(size_t n, Rng* rng) {
  std::vector<Point3> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = Point3{rng->NextDouble() * 2 - 1, rng->NextDouble() * 2 - 1,
                    rng->NextDouble() * 2 - 1, rng->NextDouble() * 1000.0,
                    i + 1};
  }
  return out;
}

Halfspace3 RandomHalfspace(Rng* rng) {
  // Random direction via normalized gaussian-ish (three uniforms are
  // fine for coverage purposes).
  const double a = rng->NextDouble() * 6.28318530718;
  const double z = rng->NextDouble() * 2 - 1;
  const double r = std::sqrt(std::max(0.0, 1 - z * z));
  return {r * std::cos(a), r * std::sin(a), z, rng->NextDouble() * 2 - 1};
}

TEST(Halfspace3, EmptyInput) {
  Halfspace3KdTree t({});
  EXPECT_FALSE(t.QueryMax({1, 0, 0, 0}).has_value());
}

struct Param {
  size_t n;
  uint64_t seed;
};

class Halfspace3Sweep : public ::testing::TestWithParam<Param> {};

TEST_P(Halfspace3Sweep, PrioritizedAndMaxMatchBrute) {
  const Param p = GetParam();
  Rng rng(p.seed);
  std::vector<Point3> data = RandomPoints3(p.n, &rng);
  Halfspace3KdTree t(data);
  for (int trial = 0; trial < 40; ++trial) {
    const Halfspace3 q = RandomHalfspace(&rng);
    const double tau_pool[] = {kNegInf, 100.0, 600.0, 950.0};
    const double tau = tau_pool[trial % 4];
    std::vector<Point3> got;
    t.QueryPrioritized(q, tau, [&got](const Point3& e) {
      got.push_back(e);
      return true;
    });
    auto want = test::BrutePrioritized<Halfspace3Problem>(data, q, tau);
    ASSERT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want));

    auto gmax = t.QueryMax(q);
    auto wmax = test::BruteMax<Halfspace3Problem>(data, q);
    ASSERT_EQ(gmax.has_value(), wmax.has_value());
    if (gmax.has_value()) {
      ASSERT_EQ(gmax->id, wmax->id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Halfspace3Sweep,
                         ::testing::Values(Param{1, 1}, Param{2, 2},
                                           Param{64, 3}, Param{1000, 4},
                                           Param{4000, 5}));

TEST(Halfspace3, BothReductionsMatchBrute) {
  Rng rng(7);
  std::vector<Point3> data = RandomPoints3(3000, &rng);
  CoreSetTopK<Halfspace3Problem, Halfspace3KdTree> thm1(data);
  SampledTopK<Halfspace3Problem, Halfspace3KdTree, Halfspace3KdTree> thm2(
      data);
  for (int trial = 0; trial < 8; ++trial) {
    const Halfspace3 q = RandomHalfspace(&rng);
    for (size_t k : {size_t{1}, size_t{10}, size_t{100}}) {
      auto want = test::BruteTopK<Halfspace3Problem>(data, q, k);
      ASSERT_EQ(test::IdsOf(topk::Query(thm1, q, k)), test::IdsOf(want));
      ASSERT_EQ(test::IdsOf(topk::Query(thm2, q, k)), test::IdsOf(want));
    }
  }
}

// Degenerate inputs through the kd-tree problems: all points identical,
// all collinear, all coplanar.
TEST(KdTreeDegenerate, IdenticalPoints) {
  std::vector<Point3> data;
  for (uint64_t i = 1; i <= 300; ++i) {
    data.push_back({0.5, 0.5, 0.5, static_cast<double>(i), i});
  }
  Halfspace3KdTree t(data);
  auto got = t.QueryMax({1, 0, 0, 0.5});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 300u);
  EXPECT_FALSE(t.QueryMax({1, 0, 0, 0.51}).has_value());

  SampledTopK<Halfspace3Problem, Halfspace3KdTree, Halfspace3KdTree> thm2(
      data);
  auto top = topk::Query(thm2, {1, 0, 0, 0.0}, 5);
  ASSERT_EQ(top.size(), 5u);
  EXPECT_EQ(top[0].id, 300u);
  EXPECT_EQ(top[4].id, 296u);
}

TEST(KdTreeDegenerate, CollinearPoints) {
  Rng rng(8);
  std::vector<Point3> data;
  for (uint64_t i = 1; i <= 500; ++i) {
    const double v = static_cast<double>(i) / 500.0;
    data.push_back({v, v, v, rng.NextDouble() * 100, i});
  }
  Halfspace3KdTree t(data);
  for (int trial = 0; trial < 20; ++trial) {
    const Halfspace3 q = RandomHalfspace(&rng);
    auto gmax = t.QueryMax(q);
    auto wmax = test::BruteMax<Halfspace3Problem>(data, q);
    ASSERT_EQ(gmax.has_value(), wmax.has_value());
    if (gmax.has_value()) {
      ASSERT_EQ(gmax->id, wmax->id);
    }
  }
}

TEST(KdTreeDegenerate, CoincidentCirclePoints) {
  std::vector<circle::WPoint2> data;
  for (uint64_t i = 1; i <= 200; ++i) {
    data.push_back({1.0, 2.0, static_cast<double>(i % 13), i});
  }
  circle::CircularKdTree t(data);
  auto got = t.QueryMax({1.0, 2.0, 0.0});
  auto want = test::BruteMax<circle::CircularProblem>(data, {1.0, 2.0, 0.0});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, want->id);
  size_t count = 0;
  t.QueryPrioritized({1.0, 2.0, 0.0}, kNegInf,
                     [&count](const circle::WPoint2&) {
                       ++count;
                       return true;
                     });
  EXPECT_EQ(count, 200u);
}

}  // namespace
}  // namespace topk
