// Edge behaviour of the reductions that the main sweeps don't isolate:
// option plumbing (block size, seeds), Theorem 2's fixed ladder
// spacing, the k >= n/2 scan path, skewed weight distributions, and
// tiny-n boundary conditions.

#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"
#include "core/core_set_topk.h"
#include "core/reduction_options.h"
#include "core/sampled_topk.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;
using range1d::RangeMax;

using Thm1 = CoreSetTopK<Range1DProblem, PrioritySearchTree>;
using Thm2 = SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax>;

// Exponentially skewed weights: the regime where rank sampling sees
// extreme weight gaps (stresses the "distinct weights" arithmetic and
// the k-selection comparators).
std::vector<Point1D> SkewedPoints(size_t n, Rng* rng) {
  std::vector<Point1D> pts(n);
  for (size_t i = 0; i < n; ++i) {
    pts[i].x = rng->NextDouble();
    pts[i].weight = std::exp(20.0 * rng->NextDouble());  // 8 decades
    pts[i].id = i + 1;
  }
  return pts;
}

TEST(ReductionEdges, SkewedWeightsStayExact) {
  Rng rng(1);
  std::vector<Point1D> data = SkewedPoints(8000, &rng);
  Thm1 thm1(data);
  Thm2 thm2(data);
  for (int trial = 0; trial < 10; ++trial) {
    double a = rng.NextDouble(), b = rng.NextDouble();
    if (a > b) std::swap(a, b);
    for (size_t k : {size_t{1}, size_t{64}, size_t{4000}}) {
      auto want = test::BruteTopK<Range1DProblem>(data, {a, b}, k);
      ASSERT_EQ(test::IdsOf(topk::Query(thm1, {a, b}, k)), test::IdsOf(want));
      ASSERT_EQ(test::IdsOf(topk::Query(thm2, {a, b}, k)), test::IdsOf(want));
    }
  }
}

TEST(ReductionEdges, LargeKTakesScanPathAndIsExact) {
  Rng rng(2);
  // n large enough that f < n/2, so k = n/2 > f reaches the scan branch
  // (for k <= f the top-f machinery answers without scanning).
  std::vector<Point1D> data = test::RandomPoints1D(40000, &rng);
  Thm1 thm1(data);
  ASSERT_LT(thm1.f(), 20000u);
  QueryStats stats;
  auto got = topk::Query(thm1, {0.0, 1.0}, 20000, &stats);  // k == n/2
  EXPECT_EQ(stats.full_scans, 1u);
  auto want = test::BruteTopK<Range1DProblem>(data, {0.0, 1.0}, 20000);
  EXPECT_EQ(test::IdsOf(got), test::IdsOf(want));
}

// Theorem 2's ladder spacing is the paper's fixed sigma = 1/20: the
// sample levels are exactly the K_i = K_1 * (1 + sigma)^{i-1} <= n/4,
// h = floor(log_{1+sigma}((n/4) / K_1)) + 1 of them, with
// K_1 = B * Q_max(n) at the RAM B.
TEST(ReductionEdges, SigmaControlsLadderDensity) {
  Rng rng(3);
  constexpr size_t n = 100000;
  std::vector<Point1D> data = test::RandomPoints1D(n, &rng);
  const Thm2 thm2(data);
  const double k1 = static_cast<double>(kRamBlockSizeThm2) *
                    RangeMax::QueryCostBound(n, kRamBlockSizeThm2);
  ASSERT_EQ(thm2.base_k(), k1);
  const double ratio = static_cast<double>(n) / 4.0 / k1;
  const size_t levels = static_cast<size_t>(
      std::floor(std::log(ratio) / std::log(1.0 + kThm2Sigma)) + 1);
  EXPECT_EQ(levels, 102u);
  EXPECT_EQ(thm2.num_sample_levels(), levels);
  for (size_t k : {size_t{5}, size_t{500}}) {
    auto want = test::BruteTopK<Range1DProblem>(data, {0.3, 0.7}, k);
    EXPECT_EQ(test::IdsOf(topk::Query(thm2, {0.3, 0.7}, k)),
              test::IdsOf(want));
  }
}

TEST(ReductionEdges, BlockSizeScalesF) {
  Rng rng(4);
  std::vector<Point1D> data = test::RandomPoints1D(50000, &rng);
  ReductionOptions small_b;
  small_b.block_size = 64;
  ReductionOptions big_b;
  big_b.block_size = 512;
  Thm1 a(data, small_b), b(data, big_b);
  EXPECT_LT(a.f(), b.f());  // f = 12*lambda*B*Q_pri grows with B
  auto want = test::BruteTopK<Range1DProblem>(data, {0.2, 0.9}, 33);
  EXPECT_EQ(test::IdsOf(topk::Query(a, {0.2, 0.9}, 33)), test::IdsOf(want));
  EXPECT_EQ(test::IdsOf(topk::Query(b, {0.2, 0.9}, 33)), test::IdsOf(want));
}

TEST(ReductionEdges, TinyInputsEveryK) {
  Rng rng(5);
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{8}}) {
    std::vector<Point1D> data = test::RandomPoints1D(n, &rng);
    Thm1 thm1(data);
    Thm2 thm2(data);
    for (size_t k = 1; k <= n + 2; ++k) {
      const Range1D all{0.0, 1.0};
      auto want = test::BruteTopK<Range1DProblem>(data, all, k);
      ASSERT_EQ(test::IdsOf(topk::Query(thm1, all, k)), test::IdsOf(want))
          << "n=" << n << " k=" << k;
      ASSERT_EQ(test::IdsOf(topk::Query(thm2, all, k)), test::IdsOf(want))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(ReductionEdges, AllWeightsEqual) {
  // Ties everywhere: (weight, id) must fully determine every answer.
  std::vector<Point1D> data;
  for (uint64_t i = 1; i <= 2000; ++i) {
    data.push_back({static_cast<double>(i % 97) / 97.0, 42.0, i});
  }
  Thm1 thm1(data);
  Thm2 thm2(data);
  Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    double a = rng.NextDouble(), b = rng.NextDouble();
    if (a > b) std::swap(a, b);
    for (size_t k : {size_t{1}, size_t{10}, size_t{500}}) {
      auto want = test::BruteTopK<Range1DProblem>(data, {a, b}, k);
      ASSERT_EQ(test::IdsOf(topk::Query(thm1, {a, b}, k)), test::IdsOf(want));
      ASSERT_EQ(test::IdsOf(topk::Query(thm2, {a, b}, k)), test::IdsOf(want));
    }
  }
}

}  // namespace
}  // namespace topk
