// Interval stabbing (Theorem 4): the prioritized segment-tree structure,
// the folklore slab stabbing-max, and both reductions end to end.

#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "interval/interval.h"
#include "interval/seg_stab.h"
#include "interval/stab_max.h"
#include "test_util.h"

namespace topk {
namespace {

using interval::Interval;
using interval::SegmentStabbing;
using interval::SlabStabMax;
using interval::StabProblem;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

std::vector<Interval> RandomIntervals(size_t n, Rng* rng,
                                      double span = 0.1) {
  std::vector<Interval> out(n);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng->NextDouble();
    const double len = rng->NextDouble() * span;
    out[i] = Interval{a, a + len, rng->NextDouble() * 1000.0, i + 1};
  }
  return out;
}

// Intervals with heavily shared endpoints (grid coordinates).
std::vector<Interval> GridIntervals(size_t n, Rng* rng) {
  std::vector<Interval> out(n);
  for (size_t i = 0; i < n; ++i) {
    double a = static_cast<double>(rng->Below(20));
    double b = static_cast<double>(rng->Below(20));
    if (a > b) std::swap(a, b);
    out[i] = Interval{a, b, static_cast<double>(rng->Below(50)), i + 1};
  }
  return out;
}

std::vector<Interval> Collect(const SegmentStabbing& s, double q,
                              double tau) {
  std::vector<Interval> out;
  s.QueryPrioritized(q, tau, [&out](const Interval& e) {
    out.push_back(e);
    return true;
  });
  return out;
}

TEST(SegmentStabbing, EmptyInput) {
  SegmentStabbing s({});
  EXPECT_TRUE(Collect(s, 0.5, kNegInf).empty());
}

TEST(SegmentStabbing, PointIntervalAndEndpoints) {
  SegmentStabbing s({{1.0, 1.0, 5.0, 1}, {1.0, 2.0, 7.0, 2}});
  EXPECT_EQ(Collect(s, 1.0, kNegInf).size(), 2u);  // both contain 1.0
  EXPECT_EQ(Collect(s, 2.0, kNegInf).size(), 1u);  // closed right end
  EXPECT_EQ(Collect(s, 1.5, kNegInf).size(), 1u);
  EXPECT_TRUE(Collect(s, 0.99, kNegInf).empty());
  EXPECT_TRUE(Collect(s, 2.01, kNegInf).empty());
}

TEST(SegmentStabbing, EarlyTermination) {
  Rng rng(1);
  SegmentStabbing s(RandomIntervals(2000, &rng, /*span=*/1.0));
  size_t seen = 0;
  s.QueryPrioritized(0.5, kNegInf, [&seen](const Interval&) {
    ++seen;
    return seen < 5;
  });
  EXPECT_EQ(seen, 5u);
}

TEST(SegmentStabbing, NoDuplicateEmissions) {
  Rng rng(2);
  std::vector<Interval> data = GridIntervals(500, &rng);
  SegmentStabbing s(data);
  for (double q : {0.0, 1.0, 5.0, 7.5, 19.0, 20.0}) {
    auto got = Collect(s, q, kNegInf);
    std::vector<uint64_t> ids = test::SortedIdsOf(got);
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  }
}

struct Param {
  size_t n;
  uint64_t seed;
  bool grid;
};

class StabSweep : public ::testing::TestWithParam<Param> {};

TEST_P(StabSweep, PrioritizedMatchesBrute) {
  const Param p = GetParam();
  Rng rng(p.seed);
  std::vector<Interval> data =
      p.grid ? GridIntervals(p.n, &rng) : RandomIntervals(p.n, &rng);
  SegmentStabbing s(data);
  const double xmax = p.grid ? 20.0 : 1.1;
  for (int trial = 0; trial < 60; ++trial) {
    const double q = rng.NextDouble() * xmax;
    const double tau_pool[] = {kNegInf, 10.0, 300.0, 900.0};
    const double tau = tau_pool[trial % 4];
    auto got = Collect(s, q, tau);
    auto want = test::BrutePrioritized<StabProblem>(data, q, tau);
    ASSERT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want))
        << "q=" << q << " tau=" << tau;
  }
}

TEST_P(StabSweep, MaxMatchesBrute) {
  const Param p = GetParam();
  Rng rng(p.seed + 100);
  std::vector<Interval> data =
      p.grid ? GridIntervals(p.n, &rng) : RandomIntervals(p.n, &rng);
  SlabStabMax sm(data);
  const double xmax = p.grid ? 20.0 : 1.1;
  for (int trial = 0; trial < 100; ++trial) {
    const double q = rng.NextDouble() * xmax;
    auto got = sm.QueryMax(q);
    auto want = test::BruteMax<StabProblem>(data, q);
    ASSERT_EQ(got.has_value(), want.has_value()) << "q=" << q;
    if (got.has_value()) {
      ASSERT_EQ(got->id, want->id) << "q=" << q;
    }
  }
}

TEST_P(StabSweep, MaxAtExactEndpoints) {
  const Param p = GetParam();
  Rng rng(p.seed + 200);
  std::vector<Interval> data =
      p.grid ? GridIntervals(p.n, &rng) : RandomIntervals(p.n, &rng);
  SlabStabMax sm(data);
  for (size_t i = 0; i < std::min<size_t>(data.size(), 40); ++i) {
    for (double q : {data[i].lo, data[i].hi}) {
      auto got = sm.QueryMax(q);
      auto want = test::BruteMax<StabProblem>(data, q);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (got.has_value()) {
        ASSERT_EQ(got->id, want->id);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StabSweep,
    ::testing::Values(Param{1, 1, false}, Param{2, 2, false},
                      Param{50, 3, false}, Param{500, 4, false},
                      Param{3000, 5, false}, Param{100, 6, true},
                      Param{1000, 7, true}));

// End-to-end: both reductions on interval stabbing (Theorem 4).
class StabTopKSweep : public ::testing::TestWithParam<Param> {};

TEST_P(StabTopKSweep, BothReductionsMatchBrute) {
  const Param p = GetParam();
  Rng rng(p.seed + 300);
  std::vector<Interval> data =
      p.grid ? GridIntervals(p.n, &rng) : RandomIntervals(p.n, &rng, 0.3);
  CoreSetTopK<StabProblem, SegmentStabbing> thm1(data);
  SampledTopK<StabProblem, SegmentStabbing, SlabStabMax> thm2(data);
  const double xmax = p.grid ? 20.0 : 1.1;
  for (int trial = 0; trial < 15; ++trial) {
    const double q = rng.NextDouble() * xmax;
    for (size_t k : {size_t{1}, size_t{3}, size_t{20}, size_t{200}, p.n}) {
      auto want = test::BruteTopK<StabProblem>(data, q, k);
      auto got1 = topk::Query(thm1, q, k);
      auto got2 = topk::Query(thm2, q, k);
      ASSERT_EQ(test::IdsOf(got1), test::IdsOf(want))
          << "thm1 q=" << q << " k=" << k;
      ASSERT_EQ(test::IdsOf(got2), test::IdsOf(want))
          << "thm2 q=" << q << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StabTopKSweep,
    ::testing::Values(Param{10, 1, false}, Param{300, 2, false},
                      Param{2000, 3, false}, Param{800, 4, true},
                      Param{5000, 5, false}));

}  // namespace
}  // namespace topk
