#include "range1d/pst.h"

#include <cstddef>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/sink.h"
#include "range1d/point1d.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

std::vector<Point1D> Collect(const PrioritySearchTree& pst, const Range1D& q,
                             double tau) {
  std::vector<Point1D> out;
  pst.QueryPrioritized(q, tau, [&out](const Point1D& p) {
    out.push_back(p);
    return true;
  });
  return out;
}

TEST(PrioritySearchTree, EmptyInput) {
  PrioritySearchTree pst({});
  EXPECT_EQ(pst.size(), 0u);
  EXPECT_TRUE(Collect(pst, {0, 1}, kNegInf).empty());
}

TEST(PrioritySearchTree, SinglePoint) {
  PrioritySearchTree pst({{0.5, 10.0, 1}});
  EXPECT_EQ(Collect(pst, {0, 1}, kNegInf).size(), 1u);
  EXPECT_TRUE(Collect(pst, {0.6, 1}, kNegInf).empty());
  EXPECT_TRUE(Collect(pst, {0, 1}, 10.5).empty());
  EXPECT_EQ(Collect(pst, {0, 1}, 10.0).size(), 1u);  // inclusive tau
  EXPECT_EQ(Collect(pst, {0.5, 0.5}, kNegInf).size(), 1u);  // point range
}

TEST(PrioritySearchTree, EarlyTerminationStops) {
  Rng rng(5);
  PrioritySearchTree pst(test::RandomPoints1D(1000, &rng));
  size_t seen = 0;
  pst.QueryPrioritized({0.0, 1.0}, kNegInf, [&seen](const Point1D&) {
    ++seen;
    return seen < 10;
  });
  EXPECT_EQ(seen, 10u);
}

TEST(PrioritySearchTree, ForEachEnumeratesEverything) {
  Rng rng(6);
  std::vector<Point1D> data = test::RandomPoints1D(257, &rng);
  PrioritySearchTree pst(data);
  std::vector<Point1D> all;
  pst.ForEach([&all](const Point1D& p) { all.push_back(p); });
  EXPECT_EQ(test::SortedIdsOf(all), test::SortedIdsOf(data));
}

TEST(PrioritySearchTree, OutputSensitiveNodeCount) {
  // With tau at the 99.9th percentile, the query should touch far fewer
  // nodes than n.
  Rng rng(7);
  std::vector<Point1D> data = test::RandomPoints1D(1 << 15, &rng);
  PrioritySearchTree pst(data);
  QueryStats stats;
  Scratch scratch;
  auto r = MonitoredQuery(pst, Range1D{0.0, 1.0}, 999.0, data.size(),
                          &scratch, &stats);
  EXPECT_FALSE(r.hit_budget);
  // ~33 qualifying points expected; allow generous slack but demand
  // strong sublinearity.
  EXPECT_LT(stats.nodes_visited, data.size() / 20);
}

struct SweepParam {
  size_t n;
  uint64_t seed;
  bool clumped;
};

class PstSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PstSweep, MatchesBruteForce) {
  const SweepParam param = GetParam();
  Rng rng(param.seed);
  std::vector<Point1D> data =
      param.clumped ? test::ClumpedPoints1D(param.n, &rng)
                    : test::RandomPoints1D(param.n, &rng);
  PrioritySearchTree pst(data);
  ASSERT_EQ(pst.size(), data.size());

  const double xmax = param.clumped ? static_cast<double>(param.n) : 1.0;
  for (int trial = 0; trial < 50; ++trial) {
    double a = rng.NextDouble() * xmax;
    double b = rng.NextDouble() * xmax;
    if (a > b) std::swap(a, b);
    const double tau_pool[] = {kNegInf, 0.0, 250.0, 600.0, 990.0};
    const double tau = tau_pool[trial % 5];
    std::vector<Point1D> got = Collect(pst, {a, b}, tau);
    std::vector<Point1D> want =
        test::BrutePrioritized<Range1DProblem>(data, {a, b}, tau);
    EXPECT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want))
        << "n=" << param.n << " q=[" << a << "," << b << "] tau=" << tau;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PstSweep,
    ::testing::Values(SweepParam{2, 1, false}, SweepParam{3, 2, false},
                      SweepParam{10, 3, false}, SweepParam{64, 4, false},
                      SweepParam{100, 5, false}, SweepParam{1000, 6, false},
                      SweepParam{4096, 7, false}, SweepParam{100, 8, true},
                      SweepParam{1000, 9, true}, SweepParam{777, 10, true}));

}  // namespace
}  // namespace topk
