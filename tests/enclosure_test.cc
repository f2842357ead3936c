// 2D point enclosure (Theorem 5): the two-level prioritized and max
// structures (including the hybrid small-node arena) and both reductions.

#include "enclosure/enclosure_structures.h"

#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "enclosure/rect.h"
#include "test_util.h"

namespace topk {
namespace {

using enclosure::EnclosureMax;
using enclosure::EnclosurePrioritized;
using enclosure::EnclosureProblem;
using enclosure::Point2;
using enclosure::Rect;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

std::vector<Rect> RandomRects(size_t n, Rng* rng, double span = 0.2) {
  std::vector<Rect> out(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng->NextDouble(), y = rng->NextDouble();
    out[i] = Rect{x, x + rng->NextDouble() * span,
                  y, y + rng->NextDouble() * span,
                  rng->NextDouble() * 1000.0, i + 1};
  }
  return out;
}

// Grid-aligned rectangles: many shared endpoints, duplicate weights.
std::vector<Rect> GridRects(size_t n, Rng* rng) {
  std::vector<Rect> out(n);
  for (size_t i = 0; i < n; ++i) {
    double x1 = static_cast<double>(rng->Below(10));
    double x2 = static_cast<double>(rng->Below(10));
    double y1 = static_cast<double>(rng->Below(10));
    double y2 = static_cast<double>(rng->Below(10));
    if (x1 > x2) std::swap(x1, x2);
    if (y1 > y2) std::swap(y1, y2);
    out[i] = Rect{x1, x2, y1, y2, static_cast<double>(rng->Below(40)), i + 1};
  }
  return out;
}

std::vector<Rect> Collect(const EnclosurePrioritized& s, const Point2& q,
                          double tau) {
  std::vector<Rect> out;
  s.QueryPrioritized(q, tau, [&out](const Rect& e) {
    out.push_back(e);
    return true;
  });
  return out;
}

TEST(EnclosurePrioritized, EmptyInput) {
  EnclosurePrioritized s({});
  EXPECT_TRUE(Collect(s, {0.5, 0.5}, kNegInf).empty());
}

TEST(EnclosurePrioritized, SingleRectCorners) {
  EnclosurePrioritized s({{1, 2, 3, 4, 10.0, 1}});
  EXPECT_EQ(Collect(s, {1, 3}, kNegInf).size(), 1u);
  EXPECT_EQ(Collect(s, {2, 4}, kNegInf).size(), 1u);
  EXPECT_EQ(Collect(s, {1.5, 3.5}, kNegInf).size(), 1u);
  EXPECT_TRUE(Collect(s, {0.99, 3.5}, kNegInf).empty());
  EXPECT_TRUE(Collect(s, {1.5, 4.01}, kNegInf).empty());
}

TEST(EnclosurePrioritized, EarlyTermination) {
  Rng rng(1);
  EnclosurePrioritized s(RandomRects(2000, &rng, 1.0));
  size_t seen = 0;
  s.QueryPrioritized({0.5, 0.5}, kNegInf, [&seen](const Rect&) {
    ++seen;
    return seen < 6;
  });
  EXPECT_EQ(seen, 6u);
}

TEST(EnclosureMax, EmptyAndMisses) {
  EnclosureMax m({});
  EXPECT_FALSE(m.QueryMax({0, 0}).has_value());
  EnclosureMax m2({{0, 1, 0, 1, 5.0, 1}});
  EXPECT_FALSE(m2.QueryMax({2, 0.5}).has_value());
  EXPECT_TRUE(m2.QueryMax({1, 1}).has_value());
}

struct Param {
  size_t n;
  uint64_t seed;
  bool grid;
};

class EnclosureSweep : public ::testing::TestWithParam<Param> {};

TEST_P(EnclosureSweep, PrioritizedMatchesBrute) {
  const Param p = GetParam();
  Rng rng(p.seed);
  std::vector<Rect> data =
      p.grid ? GridRects(p.n, &rng) : RandomRects(p.n, &rng);
  EnclosurePrioritized s(data);
  const double m = p.grid ? 10.0 : 1.2;
  for (int trial = 0; trial < 40; ++trial) {
    const Point2 q{rng.NextDouble() * m, rng.NextDouble() * m};
    const double tau_pool[] = {kNegInf, 5.0, 300.0, 900.0};
    const double tau = p.grid ? (trial % 2 ? kNegInf : 20.0)
                              : tau_pool[trial % 4];
    auto got = Collect(s, q, tau);
    auto want = test::BrutePrioritized<EnclosureProblem>(data, q, tau);
    ASSERT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want))
        << "q=(" << q.x << "," << q.y << ") tau=" << tau;
  }
}

TEST_P(EnclosureSweep, MaxMatchesBrute) {
  const Param p = GetParam();
  Rng rng(p.seed + 50);
  std::vector<Rect> data =
      p.grid ? GridRects(p.n, &rng) : RandomRects(p.n, &rng);
  EnclosureMax s(data);
  const double m = p.grid ? 10.0 : 1.2;
  for (int trial = 0; trial < 60; ++trial) {
    const Point2 q{rng.NextDouble() * m, rng.NextDouble() * m};
    auto got = s.QueryMax(q);
    auto want = test::BruteMax<EnclosureProblem>(data, q);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got.has_value()) {
      ASSERT_EQ(got->id, want->id);
    }
  }
  // Exact-corner probes.
  for (size_t i = 0; i < std::min<size_t>(data.size(), 20); ++i) {
    const Point2 corners[] = {{data[i].x1, data[i].y1},
                              {data[i].x2, data[i].y2},
                              {data[i].x1, data[i].y2}};
    for (const Point2& q : corners) {
      auto got = s.QueryMax(q);
      auto want = test::BruteMax<EnclosureProblem>(data, q);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (got.has_value()) {
        ASSERT_EQ(got->id, want->id);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnclosureSweep,
    ::testing::Values(Param{1, 1, false}, Param{2, 2, false},
                      Param{60, 3, false}, Param{400, 4, false},
                      Param{2500, 5, false}, Param{300, 6, true},
                      Param{1500, 7, true}));

// Theorem 5 end to end: the dating-site query under both reductions.
class EnclosureTopKSweep : public ::testing::TestWithParam<Param> {};

TEST_P(EnclosureTopKSweep, BothReductionsMatchBrute) {
  const Param p = GetParam();
  Rng rng(p.seed + 90);
  std::vector<Rect> data =
      p.grid ? GridRects(p.n, &rng) : RandomRects(p.n, &rng, 0.5);
  CoreSetTopK<EnclosureProblem, EnclosurePrioritized> thm1(data);
  SampledTopK<EnclosureProblem, EnclosurePrioritized, EnclosureMax> thm2(
      data);
  const double m = p.grid ? 10.0 : 1.2;
  for (int trial = 0; trial < 10; ++trial) {
    const Point2 q{rng.NextDouble() * m, rng.NextDouble() * m};
    for (size_t k : {size_t{1}, size_t{10}, size_t{100}, p.n}) {
      auto want = test::BruteTopK<EnclosureProblem>(data, q, k);
      ASSERT_EQ(test::IdsOf(topk::Query(thm1, q, k)), test::IdsOf(want))
          << "thm1 k=" << k;
      ASSERT_EQ(test::IdsOf(topk::Query(thm2, q, k)), test::IdsOf(want))
          << "thm2 k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnclosureTopKSweep,
    ::testing::Values(Param{50, 1, false}, Param{500, 2, false},
                      Param{3000, 3, false}, Param{1000, 4, true}));

}  // namespace
}  // namespace topk
