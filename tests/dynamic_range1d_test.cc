// Dynamic 1D structures (treap PST + augmented-treap range max) and the
// dynamic SampledTopK built from them: randomized interleavings of
// Insert/Erase/Query validated against a brute-force shadow copy.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/sampled_topk.h"
#include "range1d/dyn_pst.h"
#include "range1d/dyn_range_max.h"
#include "range1d/point1d.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::DynamicPst;
using range1d::DynamicRangeMax;
using range1d::Point1D;
using range1d::Range1D;
using range1d::Range1DProblem;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

std::vector<Point1D> Collect(const DynamicPst& pst, const Range1D& q,
                             double tau) {
  std::vector<Point1D> out;
  pst.QueryPrioritized(q, tau, [&out](const Point1D& p) {
    out.push_back(p);
    return true;
  });
  return out;
}

TEST(DynamicPst, EmptyAndSingle) {
  DynamicPst pst;
  EXPECT_EQ(pst.size(), 0u);
  EXPECT_TRUE(Collect(pst, {0, 1}, kNegInf).empty());
  pst.Insert({0.5, 7.0, 1});
  EXPECT_EQ(pst.size(), 1u);
  EXPECT_EQ(Collect(pst, {0, 1}, kNegInf).size(), 1u);
  pst.Erase({0.5, 7.0, 1});
  EXPECT_EQ(pst.size(), 0u);
  EXPECT_TRUE(Collect(pst, {0, 1}, kNegInf).empty());
}

TEST(DynamicPst, RandomInterleavingMatchesBrute) {
  Rng rng(11);
  DynamicPst pst;
  std::vector<Point1D> shadow;
  uint64_t next_id = 1;
  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.Below(10);
    if (op < 6 || shadow.empty()) {
      Point1D p{rng.NextDouble(), rng.NextDouble() * 100, next_id++};
      pst.Insert(p);
      shadow.push_back(p);
    } else {
      const size_t idx = rng.Below(shadow.size());
      pst.Erase(shadow[idx]);
      shadow[idx] = shadow.back();
      shadow.pop_back();
    }
    ASSERT_EQ(pst.size(), shadow.size());
    if (step % 50 == 0) {
      double a = rng.NextDouble(), b = rng.NextDouble();
      if (a > b) std::swap(a, b);
      const double tau = rng.Bernoulli(0.5) ? kNegInf : 50.0;
      auto got = Collect(pst, {a, b}, tau);
      auto want =
          test::BrutePrioritized<Range1DProblem>(shadow, {a, b}, tau);
      ASSERT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want));
    }
  }
}

TEST(DynamicPst, HeapOrderGivesEarlyTerminationOnHeaviest) {
  // The root is the global max, so a budget-1 query with tau = -inf must
  // return the heaviest matching point when the whole domain matches.
  Rng rng(12);
  std::vector<Point1D> data = test::RandomPoints1D(500, &rng);
  DynamicPst pst(data);
  std::vector<Point1D> got;
  pst.QueryPrioritized({0.0, 1.0}, kNegInf, [&got](const Point1D& p) {
    got.push_back(p);
    return false;
  });
  ASSERT_EQ(got.size(), 1u);
  auto want = test::BruteMax<Range1DProblem>(data, {0.0, 1.0});
  EXPECT_EQ(got[0].id, want->id);
}

TEST(DynamicRangeMax, EmptyAndSingle) {
  DynamicRangeMax rm;
  EXPECT_FALSE(rm.QueryMax({0, 1}).has_value());
  rm.Insert({0.3, 9.0, 4});
  auto hit = rm.QueryMax({0.0, 1.0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->id, 4u);
  EXPECT_FALSE(rm.QueryMax({0.4, 1.0}).has_value());
  rm.Erase({0.3, 9.0, 4});
  EXPECT_FALSE(rm.QueryMax({0.0, 1.0}).has_value());
}

TEST(DynamicRangeMax, RandomInterleavingMatchesBrute) {
  Rng rng(13);
  DynamicRangeMax rm;
  std::vector<Point1D> shadow;
  uint64_t next_id = 1;
  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.Below(10);
    if (op < 6 || shadow.empty()) {
      Point1D p{rng.NextDouble(), rng.NextDouble() * 100, next_id++};
      rm.Insert(p);
      shadow.push_back(p);
    } else {
      const size_t idx = rng.Below(shadow.size());
      rm.Erase(shadow[idx]);
      shadow[idx] = shadow.back();
      shadow.pop_back();
    }
    if (step % 25 == 0) {
      double a = rng.NextDouble(), b = rng.NextDouble();
      if (a > b) std::swap(a, b);
      auto got = rm.QueryMax({a, b});
      auto want = test::BruteMax<Range1DProblem>(shadow, {a, b});
      ASSERT_EQ(got.has_value(), want.has_value());
      if (got.has_value()) {
        ASSERT_EQ(got->id, want->id);
      }
    }
  }
}

TEST(DynamicRangeMax, DuplicateXCoordinates) {
  DynamicRangeMax rm;
  std::vector<Point1D> shadow;
  for (uint64_t i = 1; i <= 64; ++i) {
    Point1D p{0.5, static_cast<double>(i % 7), i};
    rm.Insert(p);
    shadow.push_back(p);
  }
  auto got = rm.QueryMax({0.5, 0.5});
  auto want = test::BruteMax<Range1DProblem>(shadow, {0.5, 0.5});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, want->id);
}

using DynTopK = SampledTopK<Range1DProblem, DynamicPst, DynamicRangeMax>;

TEST(DynamicSampledTopK, InterleavedUpdatesStayExact) {
  Rng rng(14);
  std::vector<Point1D> data = test::RandomPoints1D(4000, &rng);
  std::vector<Point1D> shadow = data;
  DynTopK topk(data);
  uint64_t next_id = 1'000'000;
  for (int step = 0; step < 800; ++step) {
    const uint64_t op = rng.Below(10);
    if (op < 5) {
      Point1D p{rng.NextDouble(), rng.NextDouble() * 1000, next_id++};
      topk.Insert(p);
      shadow.push_back(p);
    } else {
      const size_t idx = rng.Below(shadow.size());
      topk.Erase(shadow[idx]);
      shadow[idx] = shadow.back();
      shadow.pop_back();
    }
    if (step % 20 == 0) {
      double a = rng.NextDouble(), b = rng.NextDouble();
      if (a > b) std::swap(a, b);
      const size_t k = 1 + static_cast<size_t>(rng.Below(40));
      auto got = topk::Query(topk, {a, b}, k);
      auto want = test::BruteTopK<Range1DProblem>(shadow, {a, b}, k);
      ASSERT_EQ(test::IdsOf(got), test::IdsOf(want)) << "step=" << step;
    }
  }
}

TEST(DynamicSampledTopK, GrowFromEmptyTriggersRebuild) {
  Rng rng(15);
  DynTopK topk(std::vector<Point1D>{});
  std::vector<Point1D> shadow;
  for (uint64_t i = 1; i <= 3000; ++i) {
    Point1D p{rng.NextDouble(), rng.NextDouble() * 1000, i};
    topk.Insert(p);
    shadow.push_back(p);
  }
  EXPECT_EQ(topk.size(), 3000u);
  // After growing 3000x from empty, rebuilds must have created sample
  // levels (a never-rebuilt structure would have none).
  EXPECT_GT(topk.num_sample_levels(), 0u);
  auto got = topk::Query(topk, {0.2, 0.8}, 25);
  auto want = test::BruteTopK<Range1DProblem>(shadow, {0.2, 0.8}, 25);
  EXPECT_EQ(test::IdsOf(got), test::IdsOf(want));
}

TEST(DynamicSampledTopK, ShrinkToEmpty) {
  Rng rng(16);
  std::vector<Point1D> data = test::RandomPoints1D(500, &rng);
  DynTopK topk(data);
  for (const Point1D& p : data) topk.Erase(p);
  EXPECT_EQ(topk.size(), 0u);
  EXPECT_TRUE(topk::Query(topk, {0.0, 1.0}, 5).empty());
}

}  // namespace
}  // namespace topk
