// Intra-query parallelism: the sharded flat-scan kernel and its wiring
// through all four reductions and the serving engine.
//
// The contract under test (DESIGN.md "intra-query parallelism
// contract"): threading a parallel::Context through QueryInto must be
// invisible — bit-identical results to the serial path at every shard
// count, including under heavy duplicate weights where only the strict
// (weight, id) order makes the per-shard merge deterministic. The
// sweeps run tie-heavy inputs (ClumpedPoints1D and an even heavier
// variant) through serial AND sharded paths of Theorem 1, Theorem 2,
// the binary-search baseline, and the counting reduction, asserting
// exact test::IdsOf equality against brute force. Under -DTOPK_AUDIT=ON
// the prioritized substrate is contract-checked per emission and the
// kernel recounts every sharded scan serially, so these sweeps double
// as the audit-tree coverage for the per-shard emission contract.
//
// Runs under TSan via the tsan preset's `-R serve` sweep — WorkerPool's
// generation handshake and the shard-private pool slots are the
// concurrency under test.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/kselect.h"
#include "common/random.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/binary_search_topk.h"
#include "core/core_set_topk.h"
#include "core/counting_topk.h"
#include "core/sampled_topk.h"
#include "parallel/context.h"
#include "parallel/flat_scan.h"
#include "parallel/worker_pool.h"
#include "range1d/count_tree.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "serve/engine.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::CountTree;
using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;
using range1d::RangeMax;

using Pri = test::MaybeAudited<PrioritySearchTree, Range1DProblem>;
using Thm1 = CoreSetTopK<Range1DProblem, Pri>;
using Thm2 = SampledTopK<Range1DProblem, Pri,
                         test::MaybeAuditedMax<RangeMax, Range1DProblem>>;
using Baseline = BinarySearchTopK<Range1DProblem, Pri>;
using Counting = CountingTopK<Range1DProblem, Pri, CountTree>;

// Even heavier ties than ClumpedPoints1D: a handful of distinct
// weights across thousands of elements, so every per-shard top-k pool
// is wall-to-wall duplicates and only the (weight, id) tie-break keeps
// the merge deterministic.
std::vector<Point1D> SaturatedTies(size_t n, Rng* rng) {
  std::vector<Point1D> pts(n);
  for (size_t i = 0; i < n; ++i) {
    pts[i].x = static_cast<double>(rng->Below(n / 4 + 1));
    pts[i].weight = static_cast<double>(rng->Below(5));
    pts[i].id = i + 1;
  }
  return pts;
}

// Mirrors serve::QueryEngine's dispatch: the reductions take the
// Context after the tracer, except CountingTopK whose QueryInto has no
// tracer parameter.
template <typename S>
void QueryIntoPar(const S& s, const Range1D& q, size_t k,
                  Scratch* scratch, std::vector<Point1D>* out,
                  QueryStats* stats, parallel::Context* par) {
  if constexpr (requires {
                  s.QueryInto(q, k, scratch, out, stats, nullptr, par);
                }) {
    s.QueryInto(q, k, scratch, out, stats, /*tracer=*/nullptr, par);
  } else {
    s.QueryInto(q, k, scratch, out, stats, par);
  }
}

// Sweeps every k regime of `s` over tie-heavy queries, serial and at
// several shard counts, demanding exact equality with brute force (and
// hence with the serial path) every time.
template <typename S>
void ExpectParallelMatchesSerial(const S& s,
                                 const std::vector<Point1D>& data,
                                 uint64_t seed) {
  const size_t n = data.size();
  Rng rng(seed);
  parallel::Context two(2);
  parallel::Context five(5);
  std::vector<parallel::Context*> contexts = {nullptr, &two, &five};
  Scratch scratch;
  std::vector<Point1D> got;
  const size_t ks[] = {1, 3, 16, 100, n / 3, n / 2 + 1, n + 7};
  for (int trial = 0; trial < 8; ++trial) {
    double lo = static_cast<double>(rng.Below(n / 4 + 1));
    double hi = static_cast<double>(rng.Below(n / 4 + 1));
    if (lo > hi) std::swap(lo, hi);
    const Range1D q{lo, hi};
    for (size_t k : ks) {
      const std::vector<Point1D> want =
          test::BruteTopK<Range1DProblem>(data, q, k);
      for (parallel::Context* par : contexts) {
        QueryStats stats;
        QueryIntoPar(s, q, k, &scratch, &got, &stats, par);
        ASSERT_EQ(test::IdsOf(got), test::IdsOf(want))
            << "k=" << k << " shards="
            << (par == nullptr ? 1 : par->shards()) << " q=[" << lo
            << "," << hi << "]";
      }
    }
  }
}

// --- WorkerPool ----------------------------------------------------------

TEST(WorkerPool, RunsEveryShardCallerIsShardZero) {
  parallel::WorkerPool pool(4);
  EXPECT_EQ(pool.shards(), 4u);
  std::vector<int> hits(4, 0);
  // Per-shard slots are full ints, not vector<bool> bits: shards write
  // disjoint memory locations, which is the kernel's own discipline.
  std::vector<int> on_caller(4, 0);
  const std::thread::id caller = std::this_thread::get_id();
  // Several generations through the same parked helpers.
  for (int round = 0; round < 50; ++round) {
    pool.RunShards([&](size_t s) {
      ++hits[s];
      on_caller[s] = std::this_thread::get_id() == caller ? 1 : 0;
    });
  }
  for (size_t s = 0; s < 4; ++s) EXPECT_EQ(hits[s], 50) << s;
  EXPECT_EQ(on_caller[0], 1);
  for (size_t s = 1; s < 4; ++s) EXPECT_EQ(on_caller[s], 0) << s;
}

TEST(WorkerPool, SingleShardRunsInline) {
  parallel::WorkerPool pool(1);
  int hits = 0;
  pool.RunShards([&](size_t s) {
    EXPECT_EQ(s, 0u);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

// --- FlatScanTopKInto ----------------------------------------------------

TEST(FlatScan, ExactCountAndTopKAtEveryShardCount) {
  Rng rng(101);
  const size_t n = 6000;
  const std::vector<Point1D> data = test::ClumpedPoints1D(n, &rng);
  const parallel::FlatMirror<Point1D> mirror(data);
  ASSERT_EQ(mirror.size(), n);
  Scratch scratch;
  parallel::Context three(3);
  parallel::Context eight(8);
  std::vector<Point1D> got;
  for (int trial = 0; trial < 12; ++trial) {
    double lo = static_cast<double>(rng.Below(n / 4 + 1));
    double hi = static_cast<double>(rng.Below(n / 4 + 1));
    if (lo > hi) std::swap(lo, hi);
    const Range1D q{lo, hi};
    // Mix unthresholded scans with tau cuts landing inside the
    // duplicate-weight plateaus.
    const double tau =
        trial % 3 == 0
            ? -std::numeric_limits<double>::infinity()
            : static_cast<double>(rng.Below(n / 8 + 1));
    const std::vector<Point1D> matches =
        test::BrutePrioritized<Range1DProblem>(data, q, tau);
    for (size_t k : {size_t{0}, size_t{1}, size_t{17}, size_t{500}}) {
      std::vector<Point1D> want = matches;
      SelectTopK(&want, k);
      for (parallel::Context* par :
           {static_cast<parallel::Context*>(nullptr), &three, &eight}) {
        const size_t matched = parallel::FlatScanTopKInto<Range1DProblem>(
            mirror, q, tau, k, par, &scratch, &got);
        EXPECT_EQ(matched, matches.size());
        ASSERT_EQ(test::IdsOf(got), test::IdsOf(want))
            << "k=" << k << " tau=" << tau;
      }
    }
  }
}

// Every selection regime of the kernel at every shard count: k = 0,
// k below the shard count, k at half the matches (deep enough that the
// merge is split across shards once the output reaches kMinShardedN),
// k around the match count (pools never pruned, every run kept whole),
// and k = SIZE_MAX. The x-sorted generator gives each shard its own
// x-slice, so narrow ranges leave most shards with empty runs.
TEST(FlatScan, EverySelectionRegimeAtEveryShardCount) {
  constexpr size_t kN = 12000;
  static_assert(kN / 2 >= parallel::kMinShardedN);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(103);
  std::vector<Point1D> sorted_by_x = test::ClumpedPoints1D(kN, &rng);
  std::sort(sorted_by_x.begin(), sorted_by_x.end(),
            [](const Point1D& a, const Point1D& b) { return a.x < b.x; });
  const std::vector<std::vector<Point1D>> inputs = {
      sorted_by_x, SaturatedTies(kN, &rng)};
  const double x_max = static_cast<double>(kN / 4);
  struct Cut {
    Range1D q;
    double tau;
  };
  const Cut cuts[] = {
      {{-kInf, kInf}, -kInf},             // every element matches
      {{0.0, x_max / 5}, -kInf},          // first shards only
      {{x_max * 0.9, x_max}, -kInf},      // last shards only
      {{x_max / 2, x_max / 2 + 1}, -kInf},  // a handful of matches
      {{x_max + 1, x_max + 2}, -kInf},    // nothing matches
      {{0.0, x_max}, 2.0},                // tau on a weight plateau
  };
  Scratch scratch;
  std::vector<Point1D> got;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{5},
                        size_t{8}}) {
    parallel::Context par(shards);
    for (const std::vector<Point1D>& data : inputs) {
      const parallel::FlatMirror<Point1D> mirror(data);
      for (const Cut& cut : cuts) {
        const std::vector<Point1D> matches =
            test::BrutePrioritized<Range1DProblem>(data, cut.q, cut.tau);
        const size_t m = matches.size();
        const size_t ks[] = {0,
                             1,
                             2,
                             shards - 1,
                             m / 2,
                             m == 0 ? 0 : m - 1,
                             m,
                             m + 1,
                             std::numeric_limits<size_t>::max()};
        for (size_t k : ks) {
          std::vector<Point1D> want = matches;
          if (want.size() > k) want.resize(k);
          const size_t matched = parallel::FlatScanTopKInto<Range1DProblem>(
              mirror, cut.q, cut.tau, k, &par, &scratch, &got);
          EXPECT_EQ(matched, m);
          ASSERT_EQ(test::IdsOf(got), test::IdsOf(want))
              << "k=" << k << " shards=" << shards << " q=[" << cut.q.lo
              << "," << cut.q.hi << "] tau=" << cut.tau;
        }
      }
    }
  }
}

// Regression: the per-shard prune cap was 4 * k unsaturated, so for k
// just above 2^62 it wrapped to a tiny cap, the pools pruned against a
// bogus floor, and elements that belonged in the answer were dropped.
TEST(FlatScan, HugeKNeverPrunesAwayMatches) {
  Rng rng(104);
  const std::vector<Point1D> data = test::RandomPoints1D(6000, &rng);
  const parallel::FlatMirror<Point1D> mirror(data);
  parallel::Context three(3);
  Scratch scratch;
  std::vector<Point1D> got;
  const Range1D all{-std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
  const size_t k = (size_t{1} << 62) + 1;
  const size_t matched = parallel::FlatScanTopKInto<Range1DProblem>(
      mirror, all, -std::numeric_limits<double>::infinity(), k, &three,
      &scratch, &got);
  EXPECT_EQ(matched, data.size());
  ASSERT_EQ(got.size(), data.size());
  EXPECT_EQ(test::IdsOf(got),
            test::IdsOf(test::BruteTopK<Range1DProblem>(data, all, k)));
}

TEST(FlatScan, DynamicMirrorTracksAddRemove) {
  Rng rng(55);
  std::vector<Point1D> data = test::ClumpedPoints1D(5000, &rng);
  parallel::FlatMirror<Point1D> mirror(data);
  Scratch scratch;
  parallel::Context four(4);
  std::vector<Point1D> got;
  for (int round = 0; round < 6; ++round) {
    // Remove a swath, add replacements with fresh ids.
    for (int i = 0; i < 200; ++i) {
      const size_t victim = rng.Below(data.size());
      mirror.Remove(data[victim].id);
      data[victim] = data.back();
      data.pop_back();
    }
    for (int i = 0; i < 150; ++i) {
      Point1D e;
      e.x = static_cast<double>(rng.Below(1000));
      e.weight = static_cast<double>(rng.Below(400));
      e.id = 1'000'000u + static_cast<uint64_t>(round) * 1000u +
             static_cast<uint64_t>(i);
      mirror.Add(e);
      data.push_back(e);
    }
    ASSERT_EQ(mirror.size(), data.size());
    const Range1D q{100.0, 900.0};
    std::vector<Point1D> want =
        test::BruteTopK<Range1DProblem>(data, q, 64);
    const size_t matched = parallel::FlatScanTopKInto<Range1DProblem>(
        mirror, q, -std::numeric_limits<double>::infinity(), 64, &four,
        &scratch, &got);
    EXPECT_EQ(matched,
              test::BrutePrioritized<Range1DProblem>(
                  data, q, -std::numeric_limits<double>::infinity())
                  .size());
    ASSERT_EQ(test::IdsOf(got), test::IdsOf(want)) << "round " << round;
  }
}

// --- Reductions: serial == sharded under heavy ties ----------------------

TEST(ParallelReductions, Thm1TieHeavySweep) {
  Rng rng(7001);
  const std::vector<Point1D> data = test::ClumpedPoints1D(6000, &rng);
  ExpectParallelMatchesSerial(Thm1(data), data, 1);
}

TEST(ParallelReductions, Thm2TieHeavySweep) {
  Rng rng(7002);
  const std::vector<Point1D> data = test::ClumpedPoints1D(6000, &rng);
  ExpectParallelMatchesSerial(Thm2(data), data, 2);
}

TEST(ParallelReductions, BaselineTieHeavySweep) {
  Rng rng(7003);
  const std::vector<Point1D> data = test::ClumpedPoints1D(6000, &rng);
  ExpectParallelMatchesSerial(Baseline(data), data, 3);
}

TEST(ParallelReductions, CountingTieHeavySweep) {
  Rng rng(7004);
  const std::vector<Point1D> data = test::ClumpedPoints1D(6000, &rng);
  ExpectParallelMatchesSerial(Counting(data), data, 4);
}

TEST(ParallelReductions, SaturatedTiesStayDeterministic) {
  Rng rng(7005);
  const std::vector<Point1D> data = SaturatedTies(8000, &rng);
  ExpectParallelMatchesSerial(Thm1(data), data, 5);
  ExpectParallelMatchesSerial(Thm2(data), data, 6);
  ExpectParallelMatchesSerial(Baseline(data), data, 7);
  ExpectParallelMatchesSerial(Counting(data), data, 8);
}

// The sharded full scan charges its issuance exactly once, post-merge:
// one prioritized query, every match emitted — the same counters the
// serial degenerate fetch would have charged.
TEST(ParallelReductions, ShardedFullScanChargesIssuanceOnce) {
  Rng rng(7006);
  const std::vector<Point1D> data = test::ClumpedPoints1D(6000, &rng);
  // At the paper's constants f is degenerate (f > n) and every k takes
  // the chain; shrink the constants so k >= n/2 exceeds f and the
  // full-scan branch is the one under test.
  const Thm1 thm1(data, {.constant_scale = 0.01});
  const Range1D q{0.0, static_cast<double>(data.size())};
  const size_t k = data.size() / 2 + 1;  // k >= n/2: the full scan
  ASSERT_LT(thm1.f(), k);
  const size_t all = test::BrutePrioritized<Range1DProblem>(
                         data, q, -std::numeric_limits<double>::infinity())
                         .size();
  parallel::Context four(4);
  Scratch scratch;
  std::vector<Point1D> got;
  QueryStats stats;
  thm1.QueryInto(q, k, &scratch, &got, &stats, nullptr, &four);
  EXPECT_EQ(stats.prioritized_queries, 1u);
  EXPECT_EQ(stats.elements_emitted, all);
  EXPECT_EQ(stats.full_scans, 1u);
  EXPECT_EQ(test::IdsOf(got),
            test::IdsOf(test::BruteTopK<Range1DProblem>(data, q, k)));
}

// --- Engine integration --------------------------------------------------

TEST(ParallelEngine, IntraQueryWorkersStayExactAndComposable) {
  Rng rng(7100);
  const std::vector<Point1D> data = test::ClumpedPoints1D(6000, &rng);
  const Thm2 thm2(data);
  std::vector<serve::Request<Range1D>> requests;
  for (size_t i = 0; i < 48; ++i) {
    double lo = static_cast<double>(rng.Below(1501));
    double hi = static_cast<double>(rng.Below(1501));
    if (lo > hi) std::swap(lo, hi);
    // Mostly small k, every 6th deep enough to shard (k >= n/2 and the
    // degenerate terminal scan).
    const size_t k = (i % 6 == 0) ? data.size() / 2 + 3 : 1 + i % 16;
    requests.push_back({{lo, hi}, k});
  }
  for (size_t threads : {size_t{1}, size_t{2}}) {
    for (size_t intra : {size_t{1}, size_t{4}}) {
      serve::QueryEngine<Thm2> engine(
          &thm2, {.num_threads = threads,
                  .intra_query_workers = intra,
                  .unclamped_intra_query_workers = true});
      EXPECT_EQ(engine.intra_query_workers(), intra);
      engine.Warmup(requests);
      std::vector<serve::QueryEngine<Thm2>::Result> results;
      engine.QueryBatchInto(requests, &results);
      engine.QueryBatchInto(requests, &results);  // recycled slots
      ASSERT_EQ(results.size(), requests.size());
      for (size_t i = 0; i < requests.size(); ++i) {
        EXPECT_TRUE(results[i].ok()) << i;
        ASSERT_EQ(test::IdsOf(results[i].elements),
                  test::IdsOf(test::BruteTopK<Range1DProblem>(
                      data, requests[i].predicate, requests[i].k)))
            << "request " << i << " threads=" << threads
            << " intra=" << intra;
      }
    }
  }
}

TEST(ParallelEngine, OversubscriptionClampNeverExceedsHardware) {
  Rng rng(7200);
  const std::vector<Point1D> data = test::ClumpedPoints1D(4100, &rng);
  const Baseline baseline(data);
  const size_t hw = std::thread::hardware_concurrency();
  serve::QueryEngine<Baseline> engine(
      &baseline, {.num_threads = 2, .intra_query_workers = 1024});
  if (hw > 0) {
    EXPECT_LE(2 * engine.intra_query_workers(), hw < 2 ? 2 : hw);
  }
  // Clamped or not, answers stay exact.
  std::vector<serve::Request<Range1D>> requests = {
      {{0.0, 2000.0}, 100}, {{10.0, 10.0}, 5}};
  const auto results = engine.QueryBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(test::IdsOf(results[i].elements),
              test::IdsOf(test::BruteTopK<Range1DProblem>(
                  data, requests[i].predicate, requests[i].k)));
  }
}

}  // namespace
}  // namespace topk
