// TopFChain internals (Section 3.2's nested core-set structure) tested
// directly: level shrinkage, the k <= f contract against brute force,
// and failure signalling on truncated chains. QueryTopF promises its
// top-f as a set, not an order, so results are compared as id sets plus
// the one rank a chain level reads.

#include "core/top_f.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/scratch.h"
#include "common/weighted.h"
#include "core/core_set.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;

using Chain = TopFChain<Range1DProblem, PrioritySearchTree>;

// `top` holds exactly the ids of `want` (brute force's top-f, heaviest
// first), and the pivot a chain level reads — std::nth_element at rank
// CoreSetRank(n) — is brute force's element of that rank.
void ExpectTopF(ScratchVec<Point1D>* top, const std::vector<Point1D>& want,
                size_t n) {
  EXPECT_EQ(test::SortedIdsOf(top->vec()), test::SortedIdsOf(want));
  const size_t rank = CoreSetRank(n, Range1DProblem::kLambda, 1.0);
  if (top->size() < rank || want.size() < rank) return;
  std::nth_element(top->begin(), top->begin() + (rank - 1), top->end(),
                   ByWeightDesc());
  EXPECT_EQ((*top)[rank - 1].id, want[rank - 1].id);
}

TEST(TopFChain, SingleLevelWhenSmall) {
  Rng rng(1);
  std::vector<Point1D> data = test::RandomPoints1D(100, &rng);
  Chain chain(data, /*f=*/50, /*constant_scale=*/1.0, &rng, 16);
  EXPECT_EQ(chain.num_levels(), 1u);  // 100 <= 4 * 50
  Scratch scratch;
  auto top = chain.QueryTopF({0.0, 1.0}, &scratch, nullptr);
  ASSERT_TRUE(top.has_value());
  auto want = test::BruteTopK<Range1DProblem>(data, {0.0, 1.0}, 50);
  ExpectTopF(&*top, want, data.size());
}

TEST(TopFChain, LevelsShrinkGeometrically) {
  Rng rng(2);
  std::vector<Point1D> data = test::RandomPoints1D(60000, &rng);
  const size_t f = CoreSetRank(60000, Range1DProblem::kLambda, 1.0) * 2;
  Chain chain(data, f, 1.0, &rng, 16);
  ASSERT_GT(chain.num_levels(), 1u);
  for (size_t j = 1; j < chain.num_levels(); ++j) {
    EXPECT_LT(chain.level_size(j), chain.level_size(j - 1));
  }
  EXPECT_EQ(chain.level_size(0), 60000u);
}

TEST(TopFChain, TopFMatchesBruteAcrossLevelsAndRanges) {
  Rng rng(3);
  std::vector<Point1D> data = test::RandomPoints1D(30000, &rng);
  const size_t f = 300;
  Chain chain(data, f, 1.0, &rng, 16);
  Scratch scratch;
  int failures = 0;
  for (int trial = 0; trial < 30; ++trial) {
    double a = rng.NextDouble(), b = rng.NextDouble();
    if (a > b) std::swap(a, b);
    auto top = chain.QueryTopF({a, b}, &scratch, nullptr);
    if (!top.has_value()) {
      ++failures;  // allowed (unlucky core-set) but must be rare
      continue;
    }
    auto want = test::BruteTopK<Range1DProblem>(data, {a, b}, f);
    ExpectTopF(&*top, want, data.size());
  }
  EXPECT_LE(failures, 2);
}

TEST(TopFChain, EmptyPredicateReturnsEmpty) {
  Rng rng(4);
  Chain chain(test::RandomPoints1D(5000, &rng), 100, 1.0, &rng, 16);
  Scratch scratch;
  auto top = chain.QueryTopF({2.0, 3.0}, &scratch, nullptr);
  ASSERT_TRUE(top.has_value());
  EXPECT_TRUE(top->empty());
}

TEST(TopFChain, StatsChargedPerLevel) {
  Rng rng(5);
  std::vector<Point1D> data = test::RandomPoints1D(40000, &rng);
  Chain chain(data, 200, 1.0, &rng, 16);
  QueryStats stats;
  Scratch scratch;
  // Whole domain: deep recursion.
  chain.QueryTopF({0.0, 1.0}, &scratch, &stats);
  EXPECT_GE(stats.prioritized_queries, chain.num_levels());
}

}  // namespace
}  // namespace topk
