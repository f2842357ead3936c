// Extensions: the logarithmic method (static -> insert-only dynamic)
// and the direct heap-selection top-k.

#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/logarithmic_method.h"
#include "core/sampled_topk.h"
#include "interval/interval.h"
#include "interval/seg_stab.h"
#include "interval/stab_max.h"
#include "range1d/direct_topk.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "test_util.h"

namespace topk {
namespace {

using interval::Interval;
using interval::SegmentStabbing;
using interval::SlabStabMax;
using interval::StabProblem;
using range1d::HeapSelectTopK;
using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1DProblem;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// ---- LogarithmicMethod ---------------------------------------------------

using DynStab = LogarithmicMethod<SegmentStabbing>;
using DynStabMax = LogarithmicMethod<SlabStabMax>;

Interval RandomInterval(Rng* rng, uint64_t id) {
  const double a = rng->NextDouble();
  return {a, a + rng->NextDouble() * 0.2, rng->NextDouble() * 1000.0, id};
}

TEST(LogarithmicMethod, BucketCountStaysLogarithmic) {
  Rng rng(1);
  DynStab s(std::vector<Interval>{});
  for (uint64_t i = 1; i <= 1000; ++i) s.Insert(RandomInterval(&rng, i));
  EXPECT_EQ(s.size(), 1000u);
  EXPECT_LE(s.num_buckets(), 11u);  // <= log2(1000) + 1
}

TEST(LogarithmicMethod, PrioritizedMatchesBruteUnderInsertions) {
  Rng rng(2);
  DynStab s(std::vector<Interval>{});
  std::vector<Interval> shadow;
  for (uint64_t i = 1; i <= 1200; ++i) {
    const Interval e = RandomInterval(&rng, i);
    s.Insert(e);
    shadow.push_back(e);
    if (i % 100 == 0) {
      for (int trial = 0; trial < 10; ++trial) {
        const double q = rng.NextDouble() * 1.2;
        const double tau = trial % 2 ? kNegInf : 500.0;
        std::vector<Interval> got;
        s.QueryPrioritized(q, tau, [&got](const Interval& e2) {
          got.push_back(e2);
          return true;
        });
        auto want = test::BrutePrioritized<StabProblem>(shadow, q, tau);
        ASSERT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want));
      }
    }
  }
}

TEST(LogarithmicMethod, MaxMatchesBruteUnderInsertions) {
  Rng rng(3);
  DynStabMax s(std::vector<Interval>{});
  std::vector<Interval> shadow;
  for (uint64_t i = 1; i <= 800; ++i) {
    const Interval e = RandomInterval(&rng, i);
    s.Insert(e);
    shadow.push_back(e);
    if (i % 50 == 0) {
      const double q = rng.NextDouble() * 1.2;
      auto got = s.QueryMax(q);
      auto want = test::BruteMax<StabProblem>(shadow, q);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (got.has_value()) {
        ASSERT_EQ(got->id, want->id);
      }
    }
  }
}

TEST(LogarithmicMethod, EarlyTerminationAcrossBuckets) {
  Rng rng(4);
  DynStab s(std::vector<Interval>{});
  for (uint64_t i = 1; i <= 500; ++i) {
    s.Insert({0.0, 1.0, static_cast<double>(i), i});  // all cover 0.5
  }
  size_t seen = 0;
  s.QueryPrioritized(0.5, kNegInf, [&seen](const Interval&) {
    ++seen;
    return seen < 7;
  });
  EXPECT_EQ(seen, 7u);
}

// Insert-only dynamic Theorem 2 over purely static interval structures.
TEST(LogarithmicMethod, InsertOnlySampledTopK) {
  Rng rng(5);
  SampledTopK<StabProblem, DynStab, DynStabMax> topk(
      std::vector<Interval>{});
  std::vector<Interval> shadow;
  for (uint64_t i = 1; i <= 2500; ++i) {
    const Interval e = RandomInterval(&rng, i);
    topk.Insert(e);
    shadow.push_back(e);
    if (i % 250 == 0) {
      const double q = rng.NextDouble() * 1.2;
      for (size_t k : {size_t{1}, size_t{15}, size_t{200}}) {
        auto got = topk::Query(topk, q, k);
        auto want = test::BruteTopK<StabProblem>(shadow, q, k);
        ASSERT_EQ(test::IdsOf(got), test::IdsOf(want))
            << "i=" << i << " k=" << k;
      }
    }
  }
  // Global rebuilding must have engaged (2500 inserts from empty).
  EXPECT_GT(topk.num_sample_levels(), 0u);
}

// ---- HeapSelectTopK ------------------------------------------------------

TEST(HeapSelectTopK, EmptyAndEdgeCases) {
  HeapSelectTopK s({});
  EXPECT_TRUE(topk::Query(s, {0, 1}, 5).empty());
  Rng rng(6);
  HeapSelectTopK s2(test::RandomPoints1D(100, &rng));
  EXPECT_TRUE(topk::Query(s2, {0, 1}, 0).empty());
  EXPECT_TRUE(topk::Query(s2, {0.7, 0.2}, 5).empty());  // inverted
  EXPECT_EQ(topk::Query(s2, {0, 1}, 1000).size(), 100u);
}

struct Param {
  size_t n;
  uint64_t seed;
  bool clumped;
};

class HeapSelectSweep : public ::testing::TestWithParam<Param> {};

TEST_P(HeapSelectSweep, MatchesBruteForce) {
  const Param p = GetParam();
  Rng rng(p.seed);
  std::vector<Point1D> data = p.clumped
                                  ? test::ClumpedPoints1D(p.n, &rng)
                                  : test::RandomPoints1D(p.n, &rng);
  HeapSelectTopK s(data);
  const double xmax = p.clumped ? static_cast<double>(p.n) : 1.0;
  for (int trial = 0; trial < 20; ++trial) {
    double a = rng.NextDouble() * xmax, b = rng.NextDouble() * xmax;
    if (a > b) std::swap(a, b);
    for (size_t k : {size_t{1}, size_t{10}, size_t{100}, p.n}) {
      if (k == 0) continue;
      auto got = topk::Query(s, {a, b}, k);
      auto want = test::BruteTopK<Range1DProblem>(data, {a, b}, k);
      ASSERT_EQ(test::IdsOf(got), test::IdsOf(want))
          << "n=" << p.n << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HeapSelectSweep,
    ::testing::Values(Param{1, 1, false}, Param{2, 2, false},
                      Param{100, 3, false}, Param{5000, 4, false},
                      Param{2000, 5, true}));

TEST(HeapSelectTopK, TouchesFewNodesForSmallK) {
  Rng rng(7);
  std::vector<Point1D> data = test::RandomPoints1D(1 << 16, &rng);
  HeapSelectTopK s(data);
  QueryStats stats;
  auto got = topk::Query(s, {0.2, 0.8}, 10, &stats);
  ASSERT_EQ(got.size(), 10u);
  // O(log n + k) pops; generous bound.
  EXPECT_LT(stats.nodes_visited, 200u);
}

}  // namespace
}  // namespace topk
