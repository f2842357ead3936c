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
// concurrency under test. The thread-identity pins check that the
// engine and the federation coordinator run on that one pool with the
// caller as worker 0.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <latch>
#include <limits>
#include <memory>
#include <set>
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
#include "federate/coordinator.h"
#include "parallel/context.h"
#include "parallel/flat_scan.h"
#include "parallel/worker_pool.h"
#include "range1d/count_tree.h"
#include "range1d/dyn_pst.h"
#include "range1d/dyn_range_max.h"
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
using DynamicThm2 = SampledTopK<
    Range1DProblem, test::MaybeAudited<range1d::DynamicPst, Range1DProblem>,
    test::MaybeAuditedMax<range1d::DynamicRangeMax, Range1DProblem>>;

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

// Sweeps every k regime of `s` over tie-heavy queries, serial and at
// several shard counts, demanding exact equality with brute force (and
// hence with the serial path) every time, and the serial run's protocol
// counters: every QueryStats field but nodes_visited, and that one too
// when the substrate has no stable slots (par must then be inert).
template <typename S>
void ExpectParallelMatchesSerial(const S& s,
                                 const std::vector<Point1D>& data,
                                 uint64_t seed) {
  s.AuditInvariants();
  constexpr bool kScansSlots =
      parallel::SlotAddressable<typename S::Prioritized, Point1D>;
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
      QueryStats serial;  // contexts[0] is the serial run
      for (parallel::Context* par : contexts) {
        QueryStats stats;
        s.QueryInto(q, k, &scratch, &got, &stats, /*tracer=*/nullptr, par);
        const size_t shards = par == nullptr ? 1 : par->shards();
        ASSERT_EQ(test::IdsOf(got), test::IdsOf(want))
            << "k=" << k << " shards=" << shards << " q=[" << lo << ","
            << hi << "]";
        if (par == nullptr) serial = stats;
        // Both paths charge the same protocol counters; only the
        // structural work (a flat scan vs a substrate walk) may differ,
        // and only over a substrate the kernel can scan.
        QueryStats::ForEachField([&](const char* name, auto field) {
          if (kScansSlots && field == &QueryStats::nodes_visited) return;
          EXPECT_EQ(stats.*field, serial.*field)
              << name << " k=" << k << " shards=" << shards;
        });
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

// --- Thread identity of the serving paths -------------------------------

// A stand-in top-k structure that records which thread served a
// request of k into ids[k - 1] (a test-local array: requests with
// distinct k write disjoint slots) and answers empty. With a latch, a
// request waits until the latch's count of requests is in flight at
// once, which forces those requests onto distinct workers.
struct ThreadRecorder {
  using Element = Point1D;
  using Predicate = Range1D;
  std::thread::id* ids = nullptr;
  std::latch* all_in_flight = nullptr;
  size_t size() const { return 0; }
  void QueryInto(const Range1D&, size_t k, Scratch*,
                 std::vector<Point1D>* out, QueryStats*, trace::Tracer*,
                 parallel::Context*) const {
    ids[k - 1] = std::this_thread::get_id();
    if (all_in_flight != nullptr) all_in_flight->arrive_and_wait();
    out->clear();
  }
};

std::vector<serve::Request<Range1D>> OneRequestPerK(size_t n) {
  std::vector<serve::Request<Range1D>> requests;
  for (size_t k = 1; k <= n; ++k) requests.push_back({{0.0, 1.0}, k});
  return requests;
}

TEST(ServingThreads, OneThreadEngineServesOnTheCaller) {
  std::thread::id ids[4];
  const ThreadRecorder recorder{ids};
  serve::QueryEngine<ThreadRecorder> engine(&recorder, {.num_threads = 1});
  engine.QueryBatch(OneRequestPerK(4));
  for (const std::thread::id& id : ids) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(ServingThreads, ThreeThreadEngineUsesCallerPlusTwoHelpers) {
  std::thread::id ids[3];
  std::latch all_in_flight(3);
  const ThreadRecorder recorder{ids, &all_in_flight};
  serve::QueryEngine<ThreadRecorder> engine(&recorder, {.num_threads = 3});
  engine.QueryBatch(OneRequestPerK(3));
  const std::set<std::thread::id> distinct(std::begin(ids), std::end(ids));
  EXPECT_EQ(distinct.size(), 3u);
  EXPECT_EQ(distinct.count(std::this_thread::get_id()), 1u);
}

TEST(ServingThreads, CoordinatorRunsShardZeroOnTheCaller) {
  constexpr size_t kShards = 3;
  std::thread::id ids[kShards];  // one k = 1 fetch per shard
  std::vector<ThreadRecorder> recorders;
  for (size_t s = 0; s < kShards; ++s) recorders.push_back({&ids[s]});
  std::vector<std::unique_ptr<serve::QueryEngine<ThreadRecorder>>> engines;
  std::vector<federate::Coordinator<ThreadRecorder>::Shard> shards;
  for (const ThreadRecorder& r : recorders) {
    engines.push_back(std::make_unique<serve::QueryEngine<ThreadRecorder>>(
        &r, serve::QueryEngine<ThreadRecorder>::Options{}));
    shards.push_back({engines.back().get(), nullptr});
  }
  federate::Coordinator<ThreadRecorder> coord(std::move(shards), {});
  std::vector<Point1D> out;
  coord.QueryInto(Range1D{0.0, 1.0}, 1, &out);
  EXPECT_EQ(coord.stats().shard_fetches, kShards);
  EXPECT_EQ(ids[0], std::this_thread::get_id());
  const std::set<std::thread::id> distinct(std::begin(ids), std::end(ids));
  EXPECT_EQ(distinct.size(), kShards);
}

// --- FlatScanTopKInto ----------------------------------------------------
//
// The kernel scans a substrate's own slots, weights included; the
// PST's are its nodes in build preorder.

// The x-range of the longest run of x-consecutive points that all sit
// in one 512-slot block of `pst`. Only whole x-groups are kept, so the
// range matches exactly that run.
Range1D OneBlockCut(const PrioritySearchTree& pst) {
  std::vector<std::pair<Point1D, size_t>> by_x;  // (point, its slot)
  for (size_t i = 0; i < pst.size(); ++i) {
    by_x.emplace_back(pst.ElementAt(i), i);
  }
  std::sort(by_x.begin(), by_x.end(), [](const auto& a, const auto& b) {
    return a.first.x < b.first.x;
  });
  const size_t n = by_x.size();
  auto x = [&](size_t i) { return by_x[i].first.x; };
  auto block = [&](size_t i) { return by_x[i].second / 512; };
  Range1D best{1.0, 0.0};  // empty
  size_t best_len = 0;
  for (size_t a = 0, b = 0; a < n; a = b) {
    b = a + 1;
    while (b < n && block(b) == block(a)) ++b;
    size_t lo = a;
    size_t hi = b;
    while (a > 0 && lo < hi && x(lo) == x(a - 1)) ++lo;
    while (b < n && hi > lo && x(hi - 1) == x(b)) --hi;
    if (hi - lo > best_len) {
      best_len = hi - lo;
      best = {x(lo), x(hi - 1)};
    }
  }
  return best;
}

TEST(FlatScan, ExactCountAndTopKAtEveryShardCount) {
  Rng rng(101);
  const size_t n = 6000;
  const std::vector<Point1D> data = test::ClumpedPoints1D(n, &rng);
  const PrioritySearchTree pst(data);
  ASSERT_EQ(pst.size(), n);
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
            pst, q, tau, k, par, &scratch, &got);
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
// and k = SIZE_MAX. The PST's preorder clusters by x, so narrow ranges
// leave most shards with empty runs — with interleaved 512-slot blocks,
// a range inside one block leaves every shard but one empty (asserted
// below).
TEST(FlatScan, EverySelectionRegimeAtEveryShardCount) {
  constexpr size_t kN = 12000;
  static_assert(kN / 2 >= parallel::kMinShardedN);
  // Up to 3 shards, a cut matching everything at k >= m has each shard
  // order its whole pool on the radix path, on the helper's own thread.
  static_assert(kN / 3 >= kRadixSortMin);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(103);
  const std::vector<std::vector<Point1D>> inputs = {
      test::ClumpedPoints1D(kN, &rng), SaturatedTies(kN, &rng)};
  std::vector<PrioritySearchTree> psts;
  for (const std::vector<Point1D>& data : inputs) psts.emplace_back(data);
  const double x_max = static_cast<double>(kN / 4);
  // The clumped input's widest one-block cut.
  const Range1D one_block = OneBlockCut(psts[0]);
  size_t first_slot = kN;
  size_t last_slot = 0;
  for (size_t i = 0; i < kN; ++i) {
    if (!Range1DProblem::Matches(one_block, psts[0].ElementAt(i))) continue;
    first_slot = std::min(first_slot, i);
    last_slot = std::max(last_slot, i);
  }
  ASSERT_LT(first_slot, last_slot);  // more than one match
  ASSERT_EQ(first_slot / 512, last_slot / 512);
  struct Cut {
    Range1D q;
    double tau;
  };
  const Cut cuts[] = {
      {{-kInf, kInf}, -kInf},             // every element matches
      {{0.0, x_max / 5}, -kInf},          // the first fifth of x
      {{x_max * 0.9, x_max}, -kInf},      // the last tenth of x
      {one_block, -kInf},                 // one block's worth of slots
      {{x_max / 2, x_max / 2 + 1}, -kInf},  // a handful of matches
      {{x_max + 1, x_max + 2}, -kInf},    // nothing matches
      {{0.0, x_max}, 2.0},                // tau on a weight plateau
  };
  Scratch scratch;
  std::vector<Point1D> got;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{5},
                        size_t{8}}) {
    parallel::Context par(shards);
    for (size_t in = 0; in < inputs.size(); ++in) {
      const std::vector<Point1D>& data = inputs[in];
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
              psts[in], cut.q, cut.tau, k, &par, &scratch, &got);
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
  const PrioritySearchTree pst(data);
  parallel::Context three(3);
  Scratch scratch;
  std::vector<Point1D> got;
  const Range1D all{-std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
  const size_t k = (size_t{1} << 62) + 1;
  const size_t matched = parallel::FlatScanTopKInto<Range1DProblem>(
      pst, all, -std::numeric_limits<double>::infinity(), k, &three,
      &scratch, &got);
  EXPECT_EQ(matched, data.size());
  ASSERT_EQ(got.size(), data.size());
  EXPECT_EQ(test::IdsOf(got),
            test::IdsOf(test::BruteTopK<Range1DProblem>(data, all, k)));
}

// Cuts shaped by the PST's preorder, which clusters by x: a range
// covering one x-cluster, thresholded plateaus, and nearly everything.
// At every shard count the scan must give the exact count and the exact
// ids of brute force.
TEST(FlatScan, PreorderClusteredCutsMatchBruteForce) {
  constexpr size_t kN = 10000;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(105);
  const std::vector<std::vector<Point1D>> inputs = {
      test::ClumpedPoints1D(kN, &rng), SaturatedTies(kN, &rng)};
  const double x_max = static_cast<double>(kN / 4);
  struct Cut {
    Range1D q;
    double tau;
  };
  const Cut cuts[] = {
      {{-kInf, kInf}, -kInf},            // every element matches
      {{0.0, x_max / 3}, -kInf},         // one x-cluster of the preorder
      {{x_max / 4, x_max * 3 / 4}, 2.0},  // tau on a weight plateau
      {{0.0, x_max}, 3.0},               // thresholded, nearly everything
  };
  Scratch scratch;
  std::vector<Point1D> got;
  for (const std::vector<Point1D>& data : inputs) {
    const PrioritySearchTree pst(data);
    ASSERT_EQ(pst.size(), kN);
    for (size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{5},
                          size_t{8}}) {
      parallel::Context par(shards);
      for (const Cut& cut : cuts) {
        const std::vector<Point1D> matches =
            test::BrutePrioritized<Range1DProblem>(data, cut.q, cut.tau);
        const size_t m = matches.size();
        for (size_t k : {size_t{1}, size_t{64}, m / 2, m + 1}) {
          std::vector<Point1D> want = matches;
          SelectTopK(&want, k);
          const size_t matched = parallel::FlatScanTopKInto<Range1DProblem>(
              pst, cut.q, cut.tau, k, &par, &scratch, &got);
          EXPECT_EQ(matched, m);
          ASSERT_EQ(test::IdsOf(got), test::IdsOf(want))
              << "k=" << k << " shards=" << shards << " q=[" << cut.q.lo
              << "," << cut.q.hi << "] tau=" << cut.tau;
        }
      }
    }
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

// A substrate without stable slots is never sharded: dynamic Theorem 2
// over a DynamicPst, after a run of updates, answers and charges every
// counter (nodes_visited included) identically at every shard count.
TEST(ParallelReductions, ParIsInertWithoutStableSlots) {
  static_assert(
      !parallel::SlotAddressable<DynamicThm2::Prioritized, Point1D>);
  Rng rng(7007);
  std::vector<Point1D> data = test::ClumpedPoints1D(8000, &rng);
  DynamicThm2 thm2(data);
  for (size_t i = 0; i < 500; ++i) {
    const size_t victim = rng.Below(data.size());
    thm2.Erase(data[victim]);
    data[victim] = data.back();
    data.pop_back();
  }
  for (size_t i = 0; i < 300; ++i) {
    Point1D e;
    e.x = static_cast<double>(rng.Below(2001));
    e.weight = static_cast<double>(rng.Below(1001));
    e.id = 1'000'000u + i;
    thm2.Insert(e);
    data.push_back(e);
  }
  ExpectParallelMatchesSerial(thm2, data, 9);
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
