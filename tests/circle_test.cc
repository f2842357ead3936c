// Circular range reporting (Corollary 1): disk predicate over the
// kd-tree, the lifting-trick identity, and both reductions.

#include "circle/circular.h"

#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "test_util.h"

namespace topk {
namespace {

using circle::CircularKdTree;
using circle::CircularProblem;
using circle::Disk;
using circle::WPoint2;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

std::vector<WPoint2> RandomPoints2(size_t n, Rng* rng) {
  std::vector<WPoint2> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = WPoint2{rng->NextDouble(), rng->NextDouble(),
                     rng->NextDouble() * 1000.0, i + 1};
  }
  return out;
}

std::vector<WPoint2> Collect(const CircularKdTree& t, const Disk& q,
                             double tau) {
  std::vector<WPoint2> out;
  t.QueryPrioritized(q, tau, [&out](const WPoint2& e) {
    out.push_back(e);
    return true;
  });
  return out;
}

TEST(Circular, LiftingTrickIdentity) {
  // Disk membership in the plane == halfspace membership on the
  // paraboloid, for random points and disks.
  Rng rng(1);
  for (int trial = 0; trial < 2000; ++trial) {
    const Disk q{rng.NextDouble() * 2 - 1, rng.NextDouble() * 2 - 1,
                 rng.NextDouble()};
    const double x = rng.NextDouble() * 2 - 1;
    const double y = rng.NextDouble() * 2 - 1;
    const bool in_disk = CircularProblem::Matches(q, {x, y, 0, 0});
    EXPECT_EQ(in_disk, circle::LiftedHalfspaceContains(q, x, y));
  }
}

TEST(Circular, BoundaryInclusive) {
  CircularKdTree t({{1.0, 0.0, 5.0, 1}});
  EXPECT_EQ(Collect(t, {0, 0, 1.0}, kNegInf).size(), 1u);
  EXPECT_TRUE(Collect(t, {0, 0, 0.999}, kNegInf).empty());
}

TEST(Circular, ZeroRadiusHitsExactPoint) {
  CircularKdTree t({{0.25, 0.75, 1.0, 1}, {0.5, 0.5, 2.0, 2}});
  auto hits = Collect(t, {0.25, 0.75, 0.0}, kNegInf);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 1u);
}

struct Param {
  size_t n;
  uint64_t seed;
};

class CircularSweep : public ::testing::TestWithParam<Param> {};

TEST_P(CircularSweep, PrioritizedAndMaxMatchBrute) {
  const Param p = GetParam();
  Rng rng(p.seed);
  std::vector<WPoint2> data = RandomPoints2(p.n, &rng);
  CircularKdTree t(data);
  for (int trial = 0; trial < 40; ++trial) {
    const Disk q{rng.NextDouble(), rng.NextDouble(),
                 rng.NextDouble() * 0.5};
    const double tau_pool[] = {kNegInf, 100.0, 600.0, 950.0};
    const double tau = tau_pool[trial % 4];
    auto got = Collect(t, q, tau);
    auto want = test::BrutePrioritized<CircularProblem>(data, q, tau);
    ASSERT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want));

    auto gmax = t.QueryMax(q);
    auto wmax = test::BruteMax<CircularProblem>(data, q);
    ASSERT_EQ(gmax.has_value(), wmax.has_value());
    if (gmax.has_value()) {
      ASSERT_EQ(gmax->id, wmax->id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CircularSweep,
                         ::testing::Values(Param{1, 1}, Param{2, 2},
                                           Param{64, 3}, Param{512, 4},
                                           Param{4000, 5}));

TEST(Circular, BothReductionsMatchBrute) {
  Rng rng(9);
  std::vector<WPoint2> data = RandomPoints2(4000, &rng);
  CoreSetTopK<CircularProblem, CircularKdTree> thm1(data);
  SampledTopK<CircularProblem, CircularKdTree, CircularKdTree> thm2(data);
  for (int trial = 0; trial < 10; ++trial) {
    const Disk q{rng.NextDouble(), rng.NextDouble(),
                 0.2 + rng.NextDouble() * 0.6};
    for (size_t k : {size_t{1}, size_t{10}, size_t{100}, size_t{4000}}) {
      auto want = test::BruteTopK<CircularProblem>(data, q, k);
      ASSERT_EQ(test::IdsOf(topk::Query(thm1, q, k)), test::IdsOf(want));
      ASSERT_EQ(test::IdsOf(topk::Query(thm2, q, k)), test::IdsOf(want));
    }
  }
}

}  // namespace
}  // namespace topk
