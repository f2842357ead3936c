// 2D orthogonal range reporting: range-tree prioritized and max
// structures, plus both reductions.

#include "range2d/range_tree.h"

#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "range2d/point2d.h"
#include "test_util.h"

namespace topk {
namespace {

using range2d::Range2DProblem;
using range2d::RangeTreeMax;
using range2d::RangeTreePrioritized;
using range2d::Rect2;
using range2d::WPoint2D;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

std::vector<WPoint2D> RandomPoints(size_t n, Rng* rng) {
  std::vector<WPoint2D> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = {rng->NextDouble(), rng->NextDouble(),
              rng->NextDouble() * 1000.0, i + 1};
  }
  return out;
}

// Many duplicate coordinates and weights.
std::vector<WPoint2D> GridPoints(size_t n, Rng* rng) {
  std::vector<WPoint2D> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = {static_cast<double>(rng->Below(12)),
              static_cast<double>(rng->Below(12)),
              static_cast<double>(rng->Below(9)), i + 1};
  }
  return out;
}

std::vector<WPoint2D> Collect(const RangeTreePrioritized& s, const Rect2& q,
                              double tau) {
  std::vector<WPoint2D> out;
  s.QueryPrioritized(q, tau, [&out](const WPoint2D& p) {
    out.push_back(p);
    return true;
  });
  return out;
}

TEST(RangeTreePrioritized, EmptyAndSingle) {
  RangeTreePrioritized empty({});
  EXPECT_TRUE(Collect(empty, {0, 1, 0, 1}, kNegInf).empty());
  RangeTreePrioritized one({{0.5, 0.5, 3.0, 1}});
  EXPECT_EQ(Collect(one, {0.5, 0.5, 0.5, 0.5}, kNegInf).size(), 1u);
  EXPECT_TRUE(Collect(one, {0.6, 1, 0, 1}, kNegInf).empty());
  EXPECT_TRUE(Collect(one, {0, 1, 0, 0.4}, kNegInf).empty());
}

TEST(RangeTreePrioritized, EarlyTermination) {
  Rng rng(1);
  RangeTreePrioritized s(RandomPoints(2000, &rng));
  size_t seen = 0;
  s.QueryPrioritized({0, 1, 0, 1}, kNegInf, [&seen](const WPoint2D&) {
    ++seen;
    return seen < 12;
  });
  EXPECT_EQ(seen, 12u);
}

struct Param {
  size_t n;
  uint64_t seed;
  bool grid;
};

class Range2DSweep : public ::testing::TestWithParam<Param> {};

TEST_P(Range2DSweep, PrioritizedMatchesBrute) {
  const Param p = GetParam();
  Rng rng(p.seed);
  std::vector<WPoint2D> data =
      p.grid ? GridPoints(p.n, &rng) : RandomPoints(p.n, &rng);
  RangeTreePrioritized s(data);
  const double m = p.grid ? 12.0 : 1.0;
  for (int trial = 0; trial < 40; ++trial) {
    double x1 = rng.NextDouble() * m, x2 = rng.NextDouble() * m;
    double y1 = rng.NextDouble() * m, y2 = rng.NextDouble() * m;
    if (x1 > x2) std::swap(x1, x2);
    if (y1 > y2) std::swap(y1, y2);
    const double tau = p.grid ? (trial % 2 ? kNegInf : 4.0)
                              : (trial % 2 ? kNegInf : 500.0);
    auto got = Collect(s, {x1, x2, y1, y2}, tau);
    auto want = test::BrutePrioritized<Range2DProblem>(
        data, {x1, x2, y1, y2}, tau);
    ASSERT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want));
  }
}

TEST_P(Range2DSweep, MaxMatchesBrute) {
  const Param p = GetParam();
  Rng rng(p.seed + 17);
  std::vector<WPoint2D> data =
      p.grid ? GridPoints(p.n, &rng) : RandomPoints(p.n, &rng);
  RangeTreeMax s(data);
  const double m = p.grid ? 12.0 : 1.0;
  for (int trial = 0; trial < 60; ++trial) {
    double x1 = rng.NextDouble() * m, x2 = rng.NextDouble() * m;
    double y1 = rng.NextDouble() * m, y2 = rng.NextDouble() * m;
    if (x1 > x2) std::swap(x1, x2);
    if (y1 > y2) std::swap(y1, y2);
    auto got = s.QueryMax({x1, x2, y1, y2});
    auto want = test::BruteMax<Range2DProblem>(data, {x1, x2, y1, y2});
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got.has_value()) {
      ASSERT_EQ(got->id, want->id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Range2DSweep,
    ::testing::Values(Param{1, 1, false}, Param{2, 2, false},
                      Param{60, 3, false}, Param{500, 4, false},
                      Param{3000, 5, false}, Param{400, 6, true},
                      Param{2000, 7, true}));

TEST(Range2D, BothReductionsMatchBrute) {
  Rng rng(9);
  std::vector<WPoint2D> data = RandomPoints(5000, &rng);
  CoreSetTopK<Range2DProblem, RangeTreePrioritized> thm1(data);
  SampledTopK<Range2DProblem, RangeTreePrioritized, RangeTreeMax> thm2(data);
  for (int trial = 0; trial < 10; ++trial) {
    double x1 = rng.NextDouble(), x2 = rng.NextDouble();
    double y1 = rng.NextDouble(), y2 = rng.NextDouble();
    if (x1 > x2) std::swap(x1, x2);
    if (y1 > y2) std::swap(y1, y2);
    const Rect2 q{x1, x2, y1, y2};
    for (size_t k : {size_t{1}, size_t{10}, size_t{200}, size_t{5000}}) {
      auto want = test::BruteTopK<Range2DProblem>(data, q, k);
      ASSERT_EQ(test::IdsOf(topk::Query(thm1, q, k)), test::IdsOf(want))
          << "thm1 k=" << k;
      ASSERT_EQ(test::IdsOf(topk::Query(thm2, q, k)), test::IdsOf(want))
          << "thm2 k=" << k;
    }
  }
}

// Duplicate weights: the max structure's local tie-break must agree
// with the global (weight, id) order.
TEST(Range2D, MaxTieBreaksGlobally) {
  std::vector<WPoint2D> data;
  for (uint64_t i = 1; i <= 256; ++i) {
    data.push_back({static_cast<double>(i % 16), static_cast<double>(i / 16),
                    1.0, i});  // all weights equal
  }
  RangeTreeMax s(data);
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    double x1 = rng.NextDouble() * 16, x2 = rng.NextDouble() * 16;
    double y1 = rng.NextDouble() * 16, y2 = rng.NextDouble() * 16;
    if (x1 > x2) std::swap(x1, x2);
    if (y1 > y2) std::swap(y1, y2);
    auto got = s.QueryMax({x1, x2, y1, y2});
    auto want = test::BruteMax<Range2DProblem>(data, {x1, x2, y1, y2});
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got.has_value()) {
      ASSERT_EQ(got->id, want->id);
    }
  }
}

}  // namespace
}  // namespace topk
