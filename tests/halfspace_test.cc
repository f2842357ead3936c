// 2D halfplane reporting (Theorem 3, d = 2): the weight-tree prioritized
// and max structures, plus both reductions.

#include "halfspace/halfspace_structures.h"

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "halfspace/point2.h"
#include "test_util.h"

namespace topk {
namespace {

using halfspace::Halfplane;
using halfspace::HalfplaneProblem;
using halfspace::HalfspaceMax;
using halfspace::HalfspacePrioritized;
using halfspace::Point2W;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

std::vector<Point2W> RandomPoints(size_t n, Rng* rng) {
  std::vector<Point2W> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = Point2W{rng->NextDouble() * 2 - 1, rng->NextDouble() * 2 - 1,
                     rng->NextDouble() * 1000.0, i + 1};
  }
  return out;
}

Halfplane RandomHalfplane(Rng* rng) {
  const double a = rng->NextDouble() * 2 * 3.14159265358979;
  return Halfplane{std::cos(a), std::sin(a), rng->NextDouble() * 2 - 1};
}

std::vector<Point2W> Collect(const HalfspacePrioritized& s,
                             const Halfplane& q, double tau) {
  std::vector<Point2W> out;
  s.QueryPrioritized(q, tau, [&out](const Point2W& p) {
    out.push_back(p);
    return true;
  });
  return out;
}

TEST(HalfspacePrioritized, EmptyInput) {
  HalfspacePrioritized s({});
  EXPECT_TRUE(Collect(s, {1, 0, 0}, kNegInf).empty());
}

TEST(HalfspaceMax, EmptyAndMiss) {
  HalfspaceMax m({});
  EXPECT_FALSE(m.QueryMax({1, 0, 0}).has_value());
  HalfspaceMax m2({{0, 0, 5.0, 1}});
  EXPECT_FALSE(m2.QueryMax({1, 0, 1.0}).has_value());
  auto hit = m2.QueryMax({1, 0, -1.0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->id, 1u);
}

struct Param {
  size_t n;
  uint64_t seed;
};

class HalfspaceSweep : public ::testing::TestWithParam<Param> {};

TEST_P(HalfspaceSweep, PrioritizedMatchesBrute) {
  const Param p = GetParam();
  Rng rng(p.seed);
  std::vector<Point2W> data = RandomPoints(p.n, &rng);
  HalfspacePrioritized s(data);
  for (int trial = 0; trial < 40; ++trial) {
    const Halfplane q = RandomHalfplane(&rng);
    const double tau_pool[] = {kNegInf, 100.0, 600.0, 950.0};
    const double tau = tau_pool[trial % 4];
    auto got = Collect(s, q, tau);
    auto want = test::BrutePrioritized<HalfplaneProblem>(data, q, tau);
    ASSERT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want))
        << "n=" << p.n << " tau=" << tau;
  }
}

TEST_P(HalfspaceSweep, MaxMatchesBrute) {
  const Param p = GetParam();
  Rng rng(p.seed + 31);
  std::vector<Point2W> data = RandomPoints(p.n, &rng);
  HalfspaceMax s(data);
  for (int trial = 0; trial < 60; ++trial) {
    const Halfplane q = RandomHalfplane(&rng);
    auto got = s.QueryMax(q);
    auto want = test::BruteMax<HalfplaneProblem>(data, q);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got.has_value()) {
      ASSERT_EQ(got->id, want->id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HalfspaceSweep,
                         ::testing::Values(Param{1, 1}, Param{2, 2},
                                           Param{50, 3}, Param{400, 4},
                                           Param{2000, 5}));

TEST(Halfspace, BothReductionsMatchBrute) {
  Rng rng(9);
  std::vector<Point2W> data = RandomPoints(2500, &rng);
  CoreSetTopK<HalfplaneProblem, HalfspacePrioritized> thm1(data);
  SampledTopK<HalfplaneProblem, HalfspacePrioritized, HalfspaceMax> thm2(
      data);
  for (int trial = 0; trial < 8; ++trial) {
    const Halfplane q = RandomHalfplane(&rng);
    for (size_t k : {size_t{1}, size_t{10}, size_t{100}, size_t{2500}}) {
      auto want = test::BruteTopK<HalfplaneProblem>(data, q, k);
      ASSERT_EQ(test::IdsOf(topk::Query(thm1, q, k)), test::IdsOf(want))
          << "thm1 k=" << k;
      ASSERT_EQ(test::IdsOf(topk::Query(thm2, q, k)), test::IdsOf(want))
          << "thm2 k=" << k;
    }
  }
}

}  // namespace
}  // namespace topk
