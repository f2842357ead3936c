// The O(n)-space interval-tree prioritized stabbing structure, including
// its use as an alternative Theorem 4 instantiation.

#include "interval/interval_tree_stab.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "interval/interval.h"
#include "interval/stab_max.h"
#include "test_util.h"

namespace topk {
namespace {

using interval::Interval;
using interval::IntervalTreeStab;
using interval::SlabStabMax;
using interval::StabProblem;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

std::vector<Interval> RandomIntervals(size_t n, Rng* rng, double span) {
  std::vector<Interval> out(n);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng->NextDouble();
    out[i] = Interval{a, a + rng->NextDouble() * span,
                      rng->NextDouble() * 1000.0, i + 1};
  }
  return out;
}

std::vector<Interval> Collect(const IntervalTreeStab& s, double q,
                              double tau) {
  std::vector<Interval> out;
  s.QueryPrioritized(q, tau, [&out](const Interval& e) {
    out.push_back(e);
    return true;
  });
  return out;
}

TEST(IntervalTreeStab, EmptyInput) {
  IntervalTreeStab s({});
  EXPECT_TRUE(Collect(s, 0.5, kNegInf).empty());
}

TEST(IntervalTreeStab, StabAtCenterReportsWholeNode) {
  // All intervals share the point 5.0, which becomes the root center.
  std::vector<Interval> data;
  for (uint64_t i = 1; i <= 20; ++i) {
    data.push_back({5.0 - static_cast<double>(i), 5.0 + static_cast<double>(i),
                    static_cast<double>(i), i});
  }
  IntervalTreeStab s(data);
  EXPECT_EQ(Collect(s, 5.0, kNegInf).size(), 20u);
  EXPECT_EQ(Collect(s, 5.0, 10.5).size(), 10u);
}

TEST(IntervalTreeStab, DegenerateAllIdentical) {
  std::vector<Interval> data;
  for (uint64_t i = 1; i <= 50; ++i) {
    data.push_back({1.0, 2.0, static_cast<double>(i), i});
  }
  IntervalTreeStab s(data);
  EXPECT_EQ(Collect(s, 1.5, kNegInf).size(), 50u);
  EXPECT_EQ(Collect(s, 1.0, kNegInf).size(), 50u);
  EXPECT_TRUE(Collect(s, 0.9, kNegInf).empty());
}

TEST(IntervalTreeStab, EarlyTermination) {
  Rng rng(1);
  IntervalTreeStab s(RandomIntervals(2000, &rng, 1.0));
  size_t seen = 0;
  s.QueryPrioritized(0.5, kNegInf, [&seen](const Interval&) {
    ++seen;
    return seen < 5;
  });
  EXPECT_EQ(seen, 5u);
}

struct Param {
  size_t n;
  uint64_t seed;
  double span;
};

class TreeStabSweep : public ::testing::TestWithParam<Param> {};

TEST_P(TreeStabSweep, MatchesBruteForce) {
  const Param p = GetParam();
  Rng rng(p.seed);
  std::vector<Interval> data = RandomIntervals(p.n, &rng, p.span);
  IntervalTreeStab s(data);
  for (int trial = 0; trial < 60; ++trial) {
    const double q = rng.NextDouble() * (1.0 + p.span);
    const double tau_pool[] = {kNegInf, 10.0, 300.0, 900.0};
    const double tau = tau_pool[trial % 4];
    auto got = Collect(s, q, tau);
    auto want = test::BrutePrioritized<StabProblem>(data, q, tau);
    ASSERT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want))
        << "q=" << q << " tau=" << tau;
  }
  // Probe exact endpoints too (slab boundary / center cases).
  for (size_t i = 0; i < std::min<size_t>(p.n, 25); ++i) {
    for (double q : {data[i].lo, data[i].hi}) {
      auto got = Collect(s, q, kNegInf);
      auto want = test::BrutePrioritized<StabProblem>(data, q, kNegInf);
      ASSERT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TreeStabSweep,
    ::testing::Values(Param{1, 1, 0.1}, Param{2, 2, 0.1},
                      Param{50, 3, 0.2}, Param{500, 4, 0.05},
                      Param{3000, 5, 0.3}, Param{2000, 6, 1.5}));

// Alternative Theorem 4 instantiation: both reductions over the O(n)-
// space prioritized structure.
TEST(IntervalTreeStab, WorksUnderBothReductions) {
  Rng rng(7);
  std::vector<Interval> data = RandomIntervals(3000, &rng, 0.3);
  CoreSetTopK<StabProblem, IntervalTreeStab> thm1(data);
  SampledTopK<StabProblem, IntervalTreeStab, SlabStabMax> thm2(data);
  for (int trial = 0; trial < 10; ++trial) {
    const double q = rng.NextDouble() * 1.3;
    for (size_t k : {size_t{1}, size_t{10}, size_t{150}}) {
      auto want = test::BruteTopK<StabProblem>(data, q, k);
      ASSERT_EQ(test::IdsOf(topk::Query(thm1, q, k)), test::IdsOf(want));
      ASSERT_EQ(test::IdsOf(topk::Query(thm2, q, k)), test::IdsOf(want));
    }
  }
}

}  // namespace
}  // namespace topk
