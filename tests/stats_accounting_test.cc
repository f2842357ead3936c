// Regression tests for centralized issuance charging (core/sink.h).
//
// QueryStats::prioritized_queries and ::elements_emitted are charged at
// ISSUANCE, in IssuePrioritized, and nowhere else. Two consequences are
// pinned here:
//
//   1. No double counting: swapping a reduction's substrate for the
//      transparent audit::CheckedPrioritized wrapper (which delegates
//      every query to the bare structure) leaves every QueryStats field
//      bit-identical — if implementations or wrappers also charged
//      issuance, the wrapped runs would count each query twice.
//   2. No invisible queries: a prioritized query issued OUTSIDE
//      MonitoredQuery — notably against the reverse reduction
//      TopKToPrioritized, whose QueryPrioritized used to be invisible —
//      is charged exactly once when routed through IssuePrioritized.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "audit/checked_prioritized.h"
#include "common/random.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/binary_search_topk.h"
#include "core/core_set_topk.h"
#include "core/counting_topk.h"
#include "core/sampled_topk.h"
#include "core/sink.h"
#include "core/topk_to_prioritized.h"
#include "range1d/count_tree.h"
#include "range1d/direct_topk.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::CountTree;
using range1d::HeapSelectTopK;
using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;
using range1d::RangeMax;

using Checked = audit::CheckedPrioritized<PrioritySearchTree,
                                          Range1DProblem>;

void ExpectStatsEqual(const QueryStats& want, const QueryStats& got) {
  QueryStats::ForEachField([&](const char* name, auto member) {
    EXPECT_EQ(want.*member, got.*member) << "field " << name;
  });
}

// Runs the same query sweep against `plain` and `mirrored` (same data,
// same seed, substrates differing only by the transparent wrapper) and
// requires identical counters.
template <typename Plain, typename Mirrored>
void SweepAndCompare(const Plain& plain, const Mirrored& mirrored) {
  Rng qrng(99);
  for (int rep = 0; rep < 30; ++rep) {
    const double a = qrng.NextDouble();
    const double b = qrng.NextDouble();
    const Range1D q{std::min(a, b), std::max(a, b)};
    const size_t k = 1 + qrng.Below(300);
    QueryStats plain_stats;
    QueryStats mirrored_stats;
    auto got = topk::Query(plain, q, k, &plain_stats);
    auto got_mirrored = topk::Query(mirrored, q, k, &mirrored_stats);
    ASSERT_EQ(test::IdsOf(got), test::IdsOf(got_mirrored));
    ExpectStatsEqual(plain_stats, mirrored_stats);
  }
}

TEST(StatsAccounting, Theorem1ChargesMatchAuditMirror) {
  Rng rng(1);
  std::vector<Point1D> data = test::RandomPoints1D(3000, &rng);
  CoreSetTopK<Range1DProblem, PrioritySearchTree> plain(data);
  CoreSetTopK<Range1DProblem, Checked> mirrored(data);
  SweepAndCompare(plain, mirrored);
}

TEST(StatsAccounting, Theorem2ChargesMatchAuditMirror) {
  Rng rng(2);
  std::vector<Point1D> data = test::RandomPoints1D(3000, &rng);
  SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax> plain(data);
  SampledTopK<Range1DProblem, Checked, RangeMax> mirrored(data);
  SweepAndCompare(plain, mirrored);
}

TEST(StatsAccounting, BinarySearchChargesMatchAuditMirror) {
  Rng rng(3);
  std::vector<Point1D> data = test::RandomPoints1D(3000, &rng);
  BinarySearchTopK<Range1DProblem, PrioritySearchTree> plain(data);
  BinarySearchTopK<Range1DProblem, Checked> mirrored(data);
  SweepAndCompare(plain, mirrored);
}

TEST(StatsAccounting, CountingChargesMatchAuditMirror) {
  Rng rng(4);
  std::vector<Point1D> data = test::RandomPoints1D(3000, &rng);
  CountingTopK<Range1DProblem, PrioritySearchTree, CountTree> plain(data);
  CountingTopK<Range1DProblem, Checked, CountTree> mirrored(data);
  SweepAndCompare(plain, mirrored);
}

// The regression the satellite names: a prioritized query against the
// reverse reduction, issued directly (not via MonitoredQuery), must be
// visible in the counters — exactly one query, every emission counted.
TEST(StatsAccounting, DirectIssuanceOnReverseReductionIsVisible) {
  Rng rng(5);
  std::vector<Point1D> data = test::RandomPoints1D(2000, &rng);
  // HeapSelectTopK issues no prioritized queries of its own (it walks
  // the tree directly), so every count below comes from IssuePrioritized.
  TopKToPrioritized<HeapSelectTopK> pri{HeapSelectTopK(data)};
  const Range1D q{0.2, 0.8};
  const double tau = 500.0;

  QueryStats stats;
  std::vector<Point1D> got;
  IssuePrioritized(
      pri, q, tau,
      [&got](const Point1D& e) {
        got.push_back(e);
        return true;
      },
      &stats);
  auto want = test::BrutePrioritized<Range1DProblem>(data, q, tau);
  EXPECT_EQ(test::IdsOf(got), test::IdsOf(want));
  EXPECT_EQ(stats.prioritized_queries, 1u);
  EXPECT_EQ(stats.elements_emitted, got.size());
  EXPECT_GT(stats.nodes_visited, 0u);  // structural work still charged
}

TEST(StatsAccounting, MonitoredQueryOnReverseReductionChargesOnce) {
  Rng rng(6);
  std::vector<Point1D> data = test::RandomPoints1D(2000, &rng);
  TopKToPrioritized<HeapSelectTopK> pri{HeapSelectTopK(data)};
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();

  QueryStats stats;
  Scratch scratch;
  const Range1D q{0.1, 0.9};
  MonitoredPool<Point1D> r =
      MonitoredQuery(pri, q, kNegInf, 64, &scratch, &stats);
  EXPECT_TRUE(r.hit_budget);
  EXPECT_EQ(r.elements.size(), 64u);
  EXPECT_EQ(stats.prioritized_queries, 1u);
  // The budget cut-off element is collected, so collected == emitted.
  EXPECT_EQ(stats.elements_emitted, 64u);
}

// elements_emitted counts emissions, not matches: a sink that stops the
// query early is charged exactly for what the structure produced.
TEST(StatsAccounting, EarlyStopChargesExactlyTheEmissions) {
  Rng rng(7);
  std::vector<Point1D> data = test::RandomPoints1D(500, &rng);
  PrioritySearchTree pst(data);
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();

  QueryStats stats;
  uint64_t seen = 0;
  const Range1D q{0.0, 1.0};
  IssuePrioritized(
      pst, q, kNegInf,
      [&seen](const Point1D&) {
        ++seen;
        return seen < 10;  // the 10th emission stops the query
      },
      &stats);
  EXPECT_EQ(stats.prioritized_queries, 1u);
  EXPECT_EQ(seen, 10u);
  EXPECT_EQ(stats.elements_emitted, seen);  // not the ~500 matches
}

}  // namespace
}  // namespace topk
