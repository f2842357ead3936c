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
#include "parallel/context.h"
#include "range1d/count_tree.h"
#include "range1d/direct_topk.h"
#include "range1d/dyn_pst.h"
#include "range1d/dyn_range_max.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::CountTree;
using range1d::DynamicPst;
using range1d::DynamicRangeMax;
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

// Golden counters: each reduction's summed QueryStats over one fixed
// query mix, against recorded constants. The baselines' rows date from
// before the threshold search was folded into one function; the Thm 1
// rows were re-recorded when the Lemma 2 step began walking bottom-up
// (deeper pivot first, no budget-hit probe thrown away). The Thm 2 rows
// (static serial, static with the terminal scan sharded over 4 workers,
// dynamic after updates) pin its round work: every round's probe, max
// query and fetch, and the terminal full scan at deep k; they were
// re-recorded when sample membership became a hash of the id (the same
// distribution, a different draw of the samples at each seed). The
// audit-mirror tests above compare two runs of the same code; these
// pin what that code does. n = 2^15 and B = 4 give Thm 1 f = 720 with a
// multi-level chain and a ladder of rungs, so the mix reaches the
// chain, the ladder (probe complete and pivot fetch), the full scan
// and, at constant_scale = 0.01, the binary-search fallback. A row at
// default options pins the RAM block size each reduction resolves an
// unset B to.
template <typename S>
QueryStats GoldenMixTotals(const S& s, const std::vector<size_t>& ks,
                           parallel::Context* par = nullptr) {
  Rng qrng(23);
  std::vector<Range1D> ranges = {{0.0, 1.0}, {0.1, 0.9}, {0.3, 0.5},
                                 {0.42, 0.4205}};
  for (int rep = 0; rep < 4; ++rep) {
    const double a = qrng.NextDouble();
    const double b = qrng.NextDouble();
    ranges.push_back({std::min(a, b), std::max(a, b)});
  }
  Scratch scratch;
  QueryStats total;
  std::vector<Point1D> got;
  for (const Range1D& q : ranges) {
    for (const size_t k : ks) {
      s.QueryInto(q, k, &scratch, &got, &total, nullptr, par);
    }
  }
  return total;
}

TEST(StatsAccounting, GoldenCountersAtFixedSeed) {
  Rng rng(2016);
  const size_t n = size_t{1} << 15;
  const std::vector<Point1D> data = test::RandomPoints1D(n, &rng);
  auto thm1_ks = [n](size_t f) {
    return std::vector<size_t>{1, 16, f, f + 1, 3000, n / 2};
  };
  // rounds (Thm 2 only) and results_returned (the serving layer's) stay
  // 0 here; every other field is an argument.
  auto golden = [](uint64_t nodes, uint64_t emitted, uint64_t pri,
                   uint64_t max, uint64_t fallbacks, uint64_t full_scans) {
    return QueryStats{nodes, emitted, pri, max, 0, fallbacks, full_scans, 0};
  };

  const CoreSetTopK<Range1DProblem, PrioritySearchTree> paper(
      data, {.block_size = 4});
  ASSERT_EQ(paper.f(), 720u);
  ASSERT_GE(paper.num_chain_levels(), 2u);
  ASSERT_GE(paper.num_large_k_core_sets(), 3u);
  ExpectStatsEqual(golden(292880, 220169, 112, 0, 0, 8),
                   GoldenMixTotals(paper, thm1_ks(paper.f())));
  // The same mix with degenerate fetches sharded over 4 workers: the
  // kernel charges its n scanned slots as nodes.
  parallel::Context four(4);
  ExpectStatsEqual(golden(488092, 220169, 112, 0, 0, 8),
                   GoldenMixTotals(paper, thm1_ks(paper.f()), &four));

  // Unset B is an in-memory substrate: f reads kRamBlockSizeThm1. An
  // explicit B = 64 (an EM caller's) keeps the paper's f.
  const CoreSetTopK<Range1DProblem, PrioritySearchTree> ram(data);
  ASSERT_EQ(ram.f(), 1440u);
  ExpectStatsEqual(golden(334430, 248983, 88, 0, 0, 8),
                   GoldenMixTotals(ram, thm1_ks(ram.f())));
  EXPECT_EQ((CoreSetTopK<Range1DProblem, PrioritySearchTree>(
                 data, {.block_size = 64})
                 .f()),
            3840u);

  const CoreSetTopK<Range1DProblem, PrioritySearchTree> ablated(
      data, {.block_size = 4, .constant_scale = 0.01});
  ExpectStatsEqual(golden(271419, 202164, 320, 0, 10, 8),
                   GoldenMixTotals(ablated, thm1_ks(ablated.f())));

  // k = 2n pins each count test's own k clamp: the monitored probes
  // clamp their budget to n, the exact count does not clamp.
  const std::vector<size_t> baseline_ks = {1, 16, 720, 3000, n / 2, 2 * n};
  const BinarySearchTopK<Range1DProblem, PrioritySearchTree> binary(data);
  ExpectStatsEqual(golden(3571329, 2785821, 771, 0, 0, 0),
                   GoldenMixTotals(binary, baseline_ks));

  const CountingTopK<Range1DProblem, PrioritySearchTree, CountTree>
      counting(data);
  ExpectStatsEqual(golden(251493, 183658, 48, 723, 0, 0),
                   GoldenMixTotals(counting, baseline_ks));

  // Thm 2 also counts rounds; it never falls back.
  auto golden_thm2 = [](uint64_t nodes, uint64_t emitted, uint64_t pri,
                        uint64_t max, uint64_t rounds, uint64_t full_scans) {
    return QueryStats{nodes, emitted, pri, max, rounds, 0, full_scans, 0};
  };
  const SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax> sampled(
      data);
  // Unset B resolves to kRamBlockSizeThm2 = 64 for Thm 2: K_1 = 64 Q_max.
  EXPECT_EQ(sampled.base_k(),
            64.0 * std::max(1.0, RangeMax::QueryCostBound(n, 64)));
  ExpectStatsEqual(golden_thm2(478761, 431188, 228, 100, 112, 16),
                   GoldenMixTotals(sampled, baseline_ks));
  // k >= n/2 ends in the terminal scan, sharded here: the kernel charges
  // its n scanned slots as nodes.
  ExpectStatsEqual(golden_thm2(804069, 431188, 228, 100, 112, 16),
                   GoldenMixTotals(sampled, baseline_ks, &four));
  SampledTopK<Range1DProblem, DynamicPst, DynamicRangeMax> dynamic(data);
  Rng update_rng(2017);
  for (size_t i = 0; i < 1024; ++i) {
    dynamic.Erase(data[i]);
    dynamic.Insert({update_rng.NextDouble(), update_rng.NextDouble() * 1000.0,
                    n + 1 + i});
  }
  ExpectStatsEqual(golden_thm2(442110, 403927, 200, 86, 98, 16),
                   GoldenMixTotals(dynamic, baseline_ks));

  // At n = 30 a k = 2n search narrows to (lo, hi) = (n - 2, n). There
  // the whole-range query passes a count test clamped to n, one more
  // probe than an unclamped test takes: BinarySearchTopK pays it,
  // CountingTopK does not.
  Rng small_rng(30);
  const std::vector<Point1D> small = test::RandomPoints1D(30, &small_rng);
  ExpectStatsEqual(
      golden(599, 419, 41, 0, 0, 0),
      GoldenMixTotals(
          BinarySearchTopK<Range1DProblem, PrioritySearchTree>(small), {60}));
  ExpectStatsEqual(
      golden(361, 91, 8, 32, 0, 0),
      GoldenMixTotals(
          CountingTopK<Range1DProblem, PrioritySearchTree, CountTree>(small),
          {60}));
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
