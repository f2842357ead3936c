// Zero-allocation steady state: once a QueryEngine's per-worker scratch
// arenas and recycled result slots are warm, serving a batch performs
// ZERO heap allocations — for all four reductions and the scan and
// heap-selection structures, on both the plain and the cost-budgeted
// (BudgetedTopKInto) paths. Counted by replacing
// the global operator new/delete in this TU; any allocation anywhere in
// the process during the measured window fails the test, so the
// assertion covers the engine, the reductions, the substrates, and the
// accounting layer at once.
//
// Skipped under ASan/TSan: sanitizers interpose on the allocator and
// replacing operator new underneath them is not supported.

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/kselect.h"
#include "common/random.h"
#include "core/binary_search_topk.h"
#include "core/core_set_topk.h"
#include "core/counting_topk.h"
#include "core/sampled_topk.h"
#include "core/scan_topk.h"
#include "federate/coordinator.h"
#include "federate/shard_map.h"
#include "parallel/flat_scan.h"
#include "range1d/count_tree.h"
#include "range1d/direct_topk.h"
#include "range1d/dyn_pst.h"
#include "range1d/dyn_range_max.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "serve/engine.h"
#include "serve/epoch.h"
#include "test_util.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TOPK_ALLOC_COUNTING_DISABLED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TOPK_ALLOC_COUNTING_DISABLED 1
#endif
#endif

// GCC inlines through the replaced operator new below, sees malloc, and
// then flags the free() in the replaced operator delete as mismatched —
// a false positive: the replaced pair IS malloc/free, consistently.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
// Relaxed is enough: the measured window is bracketed by the
// QueryBatchInto barrier, which orders the workers' counts.
std::atomic<uint64_t> g_alloc_count{0};
// Live heap bytes (malloc_usable_size of every block operator new
// handed out and operator delete has not yet taken back).
std::atomic<int64_t> g_live_bytes{0};
}  // namespace

#ifndef TOPK_ALLOC_COUNTING_DISABLED
// Counting allocator: every allocation in the process ticks the
// counter and adds its usable size to the live bytes. Aligned
// (over-aligned-type) variants are intentionally NOT replaced — the
// default ones are malloc-family too, so the pairs stay consistent —
// and nothing on the query path uses over-aligned types.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    return p;
  }
  std::abort();  // no exceptions in this codebase
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  if (p != nullptr) {
    g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}
#endif  // !TOPK_ALLOC_COUNTING_DISABLED

namespace topk {
namespace {

using range1d::CountTree;
using range1d::DynamicRangeMax;
using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;
using range1d::RangeMax;

using Thm1 = CoreSetTopK<Range1DProblem, PrioritySearchTree>;
using Thm2 = SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax>;
using Baseline = BinarySearchTopK<Range1DProblem, PrioritySearchTree>;
using Counting = CountingTopK<Range1DProblem, PrioritySearchTree, CountTree>;

constexpr size_t kN = 1500;

std::vector<Point1D> Data() {
  Rng rng(1234);
  return test::RandomPoints1D(kN, &rng);
}

// Serves `requests` on one worker: warm-up batches, then measured
// batches that must allocate nothing and still answer exactly against
// brute force over `data`. One worker makes the request->worker
// assignment deterministic, so the warm-up batches warm exactly the
// pools the measured batches use.
template <typename Structure>
void ExpectZeroAllocBatches(
    const Structure& s, const std::vector<Point1D>& data,
    const std::vector<typename serve::QueryEngine<Structure>::Request>&
        requests) {
  using Engine = serve::QueryEngine<Structure>;
  typename Engine::Options options;
  options.num_threads = 1;
  Engine engine(&s, options);

  std::vector<typename Engine::Result> results;
  for (int warm = 0; warm < 3; ++warm) {
    engine.QueryBatchInto(requests, &results);
  }

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int it = 0; it < 5; ++it) {
    engine.QueryBatchInto(requests, &results);
  }
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "steady-state batches allocated";

  // The recycled-slot path must still produce exact answers.
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!results[i].ok()) continue;
    EXPECT_EQ(test::IdsOf(results[i].elements),
              test::IdsOf(test::BruteTopK<Range1DProblem>(
                  data, requests[i].predicate, requests[i].k)))
        << "request " << i;
  }
}

// Diverse single-worker batch: mixed k, mixed ranges, one cost-budgeted
// request (the BudgetedTopKInto staged path).
template <typename Structure>
void ExpectZeroAllocSteadyState(const Structure& s) {
  using Engine = serve::QueryEngine<Structure>;
  Rng rng(99);
  std::vector<typename Engine::Request> requests;
  for (size_t i = 0; i < 24; ++i) {
    double lo = rng.NextDouble();
    double hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    typename Engine::Request r;
    r.predicate = Range1D{lo, hi};
    r.k = 1 + i * 7 % 60;
    requests.push_back(r);
  }
  {
    // Staged-doubling path: a budget small enough to degrade sometimes,
    // deterministic because query-time work is deterministic.
    typename Engine::Request budgeted;
    budgeted.predicate = Range1D{0.1, 0.9};
    budgeted.k = 40;
    budgeted.cost_budget = 500;
    requests.push_back(budgeted);
  }
  ExpectZeroAllocBatches(s, Data(), requests);
}

// Multi-worker batch. Request-to-worker assignment is a race (the
// self-scheduling cursor), so a parked worker can sit out many fast
// batches and then serve its first request COLD mid-measurement;
// Warmup() primes every worker's arena on every request, making the
// steady state independent of the assignment. The slot buffers are
// deterministic regardless (slot i always answers request i).
template <typename Structure>
void ExpectZeroAllocSteadyStateThreaded(const Structure& s) {
  using Engine = serve::QueryEngine<Structure>;
  typename Engine::Options options;
  options.num_threads = 4;
  Engine engine(&s, options);

  Rng rng(321);
  std::vector<typename Engine::Request> requests;
  for (size_t i = 0; i < 32; ++i) {
    double lo = rng.NextDouble();
    double hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    typename Engine::Request r;
    r.predicate = Range1D{lo, hi};
    r.k = 1 + i * 5 % 50;
    requests.push_back(r);
  }

  engine.Warmup(requests);
  std::vector<typename Engine::Result> results;
  for (int warm = 0; warm < 2; ++warm) {
    engine.QueryBatchInto(requests, &results);
  }

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int it = 0; it < 5; ++it) {
    engine.QueryBatchInto(requests, &results);
  }
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "steady-state threaded batches allocated";
}

// Intra-query-parallel steady state: the sharded flat kernel borrows
// every per-shard pool from the request worker's own Scratch, so once
// Warmup() has primed the arenas (pools never shrink) a warm engine
// with intra_query_workers > 1 also serves at exactly 0 allocs/request.
// Needs n >= parallel::kMinShardedN so a fetch may shard, and deep ks
// (k >= n/2 and k > |q(D)|) so the degenerate fetches actually shard;
// one request worker keeps assignment deterministic while the shard
// helpers run the measured window concurrently.
template <typename Structure>
void ExpectZeroAllocSteadyStateIntraParallel(const Structure& s,
                                             size_t n) {
  using Engine = serve::QueryEngine<Structure>;
  typename Engine::Options options;
  options.num_threads = 1;
  options.intra_query_workers = 4;
  options.unclamped_intra_query_workers = true;
  Engine engine(&s, options);
  ASSERT_EQ(engine.intra_query_workers(), 4u);

  Rng rng(808);
  std::vector<typename Engine::Request> requests;
  for (size_t i = 0; i < 24; ++i) {
    double lo = static_cast<double>(rng.Below(n / 4 + 1));
    double hi = static_cast<double>(rng.Below(n / 4 + 1));
    if (lo > hi) std::swap(lo, hi);
    typename Engine::Request r;
    r.predicate = Range1D{lo, hi};
    // Every third request deep enough to shard the terminal fetch; the
    // rest keep the small-k paths (and their serial pools) warm too.
    // Every other deep request spans the whole x domain, so its output
    // is n / 2 + 1 + i elements: the kernel splits the merge across
    // shards once that reaches parallel::kMinShardedN.
    r.k = (i % 3 == 0) ? n / 2 + 1 + i : 1 + i * 7 % 60;
    if (i % 6 == 0) r.predicate = Range1D{0.0, static_cast<double>(n / 4)};
    requests.push_back(r);
  }

  engine.Warmup(requests);
  std::vector<typename Engine::Result> results;
  for (int warm = 0; warm < 3; ++warm) {
    engine.QueryBatchInto(requests, &results);
  }

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int it = 0; it < 5; ++it) {
    engine.QueryBatchInto(requests, &results);
  }
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "intra-query-parallel steady state allocated";
}

#ifdef TOPK_ALLOC_COUNTING_DISABLED
#define TOPK_SKIP_UNDER_SANITIZERS() \
  GTEST_SKIP() << "allocation counting disabled under sanitizers"
#else
#define TOPK_SKIP_UNDER_SANITIZERS() (void)0
#endif

TEST(AllocRegression, CoreSetTopKZeroSteadyStateAllocs) {
  TOPK_SKIP_UNDER_SANITIZERS();
  Thm1 s(Data());
  ExpectZeroAllocSteadyState(s);
  ExpectZeroAllocSteadyStateThreaded(s);
}

// At kN, f >= n and Thm 1 never walks its chain. At n = 2^15 and B = 4
// (f = 720) the chain has >= 2 levels: wide ranges at k <= f run the
// level walk and its nth_element pivot reads, and k = f + 1 and 3000
// probe ladder rungs, whose own chains walk too.
TEST(AllocRegression, CoreSetTopKDeepChainZeroSteadyStateAllocs) {
  TOPK_SKIP_UNDER_SANITIZERS();
  Rng rng(2468);
  const std::vector<Point1D> data =
      test::RandomPoints1D(size_t{1} << 15, &rng);
  const Thm1 s(data, {.block_size = 4});
  ASSERT_GE(s.num_chain_levels(), 2u);
  ASSERT_GE(s.num_large_k_core_sets(), 3u);
  std::vector<serve::QueryEngine<Thm1>::Request> requests;
  for (const Range1D q : {Range1D{0.0, 1.0}, Range1D{0.05, 0.8},
                          Range1D{0.2, 0.6}}) {
    for (const size_t k : {size_t{16}, s.f(), s.f() + 1, size_t{3000}}) {
      serve::QueryEngine<Thm1>::Request r;
      r.predicate = q;
      r.k = k;
      requests.push_back(r);
    }
  }
  ExpectZeroAllocBatches(s, data, requests);
}

TEST(AllocRegression, SampledTopKZeroSteadyStateAllocs) {
  TOPK_SKIP_UNDER_SANITIZERS();
  Thm2 s(Data());
  ExpectZeroAllocSteadyState(s);
  ExpectZeroAllocSteadyStateThreaded(s);
}

TEST(AllocRegression, BinarySearchTopKZeroSteadyStateAllocs) {
  TOPK_SKIP_UNDER_SANITIZERS();
  Baseline s(Data());
  ExpectZeroAllocSteadyState(s);
  ExpectZeroAllocSteadyStateThreaded(s);
}

TEST(AllocRegression, CountingTopKZeroSteadyStateAllocs) {
  TOPK_SKIP_UNDER_SANITIZERS();
  Counting s(Data());
  ExpectZeroAllocSteadyState(s);
  ExpectZeroAllocSteadyStateThreaded(s);
}

// The non-reduction structures answer through the same QueryInto: the
// scan collects straight into the recycled slot and the heap selection
// borrows its frontier from the worker's arena.
TEST(AllocRegression, ScanAndHeapSelectZeroSteadyStateAllocs) {
  TOPK_SKIP_UNDER_SANITIZERS();
  const ScanTopK<Range1DProblem> scan(Data());
  ExpectZeroAllocSteadyState(scan);
  ExpectZeroAllocSteadyStateThreaded(scan);
  const range1d::HeapSelectTopK heap(Data());
  ExpectZeroAllocSteadyState(heap);
  ExpectZeroAllocSteadyStateThreaded(heap);
}

// Sharded-kernel data: big enough (n >= parallel::kMinShardedN) for the
// degenerate fetches to shard.
std::vector<Point1D> ShardableData(size_t n = 5000) {
  Rng rng(4321);
  return test::ClumpedPoints1D(n, &rng);
}

TEST(AllocRegression, IntraQueryParallelZeroSteadyStateAllocs) {
  TOPK_SKIP_UNDER_SANITIZERS();
  {
    Thm1 s(ShardableData());
    ExpectZeroAllocSteadyStateIntraParallel(s, 5000);
  }
  {
    Thm2 s(ShardableData());
    ExpectZeroAllocSteadyStateIntraParallel(s, 5000);
  }
  {
    Baseline s(ShardableData());
    ExpectZeroAllocSteadyStateIntraParallel(s, 5000);
  }
  {
    Counting s(ShardableData());
    ExpectZeroAllocSteadyStateIntraParallel(s, 5000);
  }
}

// Deep k at n = 2^14: the whole-domain requests return more than
// kMinShardedN elements, so the sorted local runs are merged by the
// co-ranked sharded merge (a second parallel region writing straight
// into the warm result slot), and each of the 4 shards orders its whole
// n/4-element pool on the radix path, in work buffers the calling
// thread borrowed for it — still zero allocations.
TEST(AllocRegression, ShardedMergeZeroSteadyStateAllocs) {
  TOPK_SKIP_UNDER_SANITIZERS();
  constexpr size_t kDeepN = size_t{1} << 14;
  static_assert(kDeepN / 2 >= parallel::kMinShardedN);
  static_assert(kDeepN / 4 >= kRadixSortMin);
  {
    Thm1 s(ShardableData(kDeepN));
    ExpectZeroAllocSteadyStateIntraParallel(s, kDeepN);
  }
  {
    Thm2 s(ShardableData(kDeepN));
    ExpectZeroAllocSteadyStateIntraParallel(s, kDeepN);
  }
  {
    Baseline s(ShardableData(kDeepN));
    ExpectZeroAllocSteadyStateIntraParallel(s, kDeepN);
  }
  {
    Counting s(ShardableData(kDeepN));
    ExpectZeroAllocSteadyStateIntraParallel(s, kDeepN);
  }
}

// Serial deep k: Thm 2's terminal scan and the scan order more than
// kRadixSortMin survivors on the request worker itself, in radix work
// buffers borrowed from its arena — zero allocations once warm.
TEST(AllocRegression, SerialDeepKZeroSteadyStateAllocs) {
  TOPK_SKIP_UNDER_SANITIZERS();
  constexpr size_t kDeepN = size_t{1} << 13;
  static_assert(kDeepN / 2 >= kRadixSortMin);
  Rng rng(1357);
  const std::vector<Point1D> data = test::RandomPoints1D(kDeepN, &rng);
  std::vector<serve::Request<Range1D>> requests;
  for (const Range1D q :
       {Range1D{0.0, 1.0}, Range1D{0.1, 0.9}, Range1D{0.3, 0.6}}) {
    for (const size_t k : {size_t{16}, kRadixSortMin, kDeepN / 2 + 1,
                           kDeepN}) {
      serve::Request<Range1D> r;
      r.predicate = q;
      r.k = k;
      requests.push_back(r);
    }
  }
  ExpectZeroAllocBatches(Thm2(data), data, requests);
  ExpectZeroAllocBatches(ScanTopK<Range1DProblem>(data), data, requests);
}

// Live heap bytes `make()`'s result holds while it is alive.
template <typename Make>
int64_t HeldBytes(const Make& make) {
  const int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  const auto held = make();
  return g_live_bytes.load(std::memory_order_relaxed) - before;
}

// Space pin for S_top = O(S_pri): a static reduction over a
// SlotAddressable substrate (the PST) scans the substrate's own slots,
// tau prefilter included, so beyond a bare PST on the same data it
// holds only its sorted weights (Theorem 1), its deeper core-set
// levels and its sample levels (Theorem 2) — no element copy and no
// copy of the slot weights. Each part is measured from a bare instance
// of the same size; a slot-weight copy (8 B per element of every level
// big enough to shard) or an element copy (24 B) would overshoot the
// bound by far more than its fixed slack.
TEST(AllocRegression, StaticReductionsHoldNoElementCopy) {
  TOPK_SKIP_UNDER_SANITIZERS();
  constexpr size_t kSpaceN = size_t{1} << 15;
  constexpr int64_t kSlack = 16 << 10;  // level/chain headers
  const std::vector<Point1D> data = ShardableData(kSpaceN);
  auto prefix = [&data](size_t m) {
    return std::vector<Point1D>(data.begin(), data.begin() + m);
  };
  auto pst_bytes = [&](size_t m) {
    return HeldBytes([&] { return PrioritySearchTree(prefix(m)); });
  };
  auto weight_bytes = [](size_t m) {
    return HeldBytes([m] { return std::vector<double>(m); });
  };
  const int64_t bare = pst_bytes(kSpaceN);

  {
    const Thm1 thm1(data);
    int64_t bound = weight_bytes(kSpaceN) + kSlack;  // sorted weights
    auto add_chain = [&](const TopFChain<Range1DProblem,
                                         PrioritySearchTree>& chain,
                         bool shares_bare_level) {
      for (size_t j = 0; j < chain.num_levels(); ++j) {
        const size_t m = chain.level_size(j);
        if (j > 0 || !shares_bare_level) bound += pst_bytes(m);
      }
    };
    add_chain(thm1.small_k_chain(), true);
    for (size_t i = 0; i < thm1.num_large_k_core_sets(); ++i) {
      add_chain(thm1.large_k_chain(i), false);
    }
    const int64_t extra = HeldBytes([&] { return Thm1(data); }) - bare;
    RecordProperty("thm1_extra_bytes", std::to_string(extra));
    RecordProperty("thm1_bound_bytes", std::to_string(bound));
    EXPECT_LE(extra, bound) << "Thm 1 holds " << extra
                            << " B beyond a bare PST";
  }

  {
    const Thm2 thm2(data);
    int64_t bound = kSlack;
    for (size_t i = 0; i < thm2.num_sample_levels(); ++i) {
      const size_t m = thm2.sample_level_size(i);
      // Samples are push_back-grown, as SampledTopK draws them.
      bound += HeldBytes([&] {
        std::vector<Point1D> sample;
        for (size_t j = 0; j < m; ++j) sample.push_back(data[j]);
        return RangeMax(std::move(sample));
      });
    }
    const int64_t extra = HeldBytes([&] { return Thm2(data); }) - bare;
    RecordProperty("thm2_extra_bytes", std::to_string(extra));
    RecordProperty("thm2_bound_bytes", std::to_string(bound));
    EXPECT_LE(extra, bound) << "Thm 2 holds " << extra
                            << " B beyond a bare PST";
  }
}

// Space pin for a substrate without stable slots: dynamic Theorem 2
// over a DynamicPst is never sharded and keeps no element copy. Beyond
// a bare DynamicPst on the same data it holds only its sample levels,
// each measured from a bare instance — after build and after a run of
// Erases. Sample membership is derived from the id, so no per-element
// index is allowed for.
TEST(AllocRegression, DynamicReductionHoldsNoElementCopy) {
  TOPK_SKIP_UNDER_SANITIZERS();
  using DynamicThm2 =
      SampledTopK<Range1DProblem, range1d::DynamicPst, DynamicRangeMax>;
  constexpr size_t kSpaceN = size_t{1} << 15;
  constexpr int64_t kSlack = 16 << 10;  // level headers
  const std::vector<Point1D> data = ShardableData(kSpaceN);
  const DynamicThm2 shape(data);
  int64_t bound =
      HeldBytes([&] { return range1d::DynamicPst(data); }) + kSlack;
  for (size_t i = 0; i < shape.num_sample_levels(); ++i) {
    const size_t m = shape.sample_level_size(i);
    bound += HeldBytes([&] {
      std::vector<Point1D> sample;
      for (size_t j = 0; j < m; ++j) sample.push_back(data[j]);
      return DynamicRangeMax(std::move(sample));
    });
  }
  RecordProperty("dyn_thm2_bound_bytes", std::to_string(bound));

  const int64_t built = HeldBytes([&] { return DynamicThm2(data); });
  RecordProperty("dyn_thm2_built_bytes", std::to_string(built));
  EXPECT_LE(built, bound) << "dynamic Thm 2 holds " << built
                          << " B after build";
  const int64_t erased = HeldBytes([&] {
    DynamicThm2 thm2(data);
    for (size_t i = 0; i < kSpaceN / 4; ++i) thm2.Erase(data[i]);
    return thm2;
  });
  RecordProperty("dyn_thm2_erased_bytes", std::to_string(erased));
  EXPECT_LE(erased, bound) << "dynamic Thm 2 holds " << erased
                           << " B after " << kSpaceN / 4 << " Erases";
}

// Epoch-pinned query path (PR's serve-during-mutation mode): acquiring
// the per-batch epoch pin is a slot store + pointer compare — no
// allocation — so the steady state stays at zero allocs/request, even
// straddling a Publish (writer-side allocation happens outside the
// measured window; the engine's arenas stay warm across the swap
// because the republished structure serves the same workload).
TEST(AllocRegression, EpochPinnedPathZeroSteadyStateAllocs) {
  TOPK_SKIP_UNDER_SANITIZERS();
  serve::EpochManager<Thm2> epochs{Thm2(Data())};
  using Engine = serve::QueryEngine<Thm2>;
  Engine::Options options;
  options.num_threads = 1;
  Engine engine(&epochs, options);

  Rng rng(555);
  std::vector<Engine::Request> requests;
  for (size_t i = 0; i < 24; ++i) {
    double lo = rng.NextDouble();
    double hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    Engine::Request r;
    r.predicate = Range1D{lo, hi};
    r.k = 1 + i * 7 % 60;
    requests.push_back(r);
  }

  std::vector<Engine::Result> results;
  for (int warm = 0; warm < 3; ++warm) {
    engine.QueryBatchInto(requests, &results);
  }

  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int it = 0; it < 5; ++it) {
    engine.QueryBatchInto(requests, &results);
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "epoch-pinned steady state allocated";
  EXPECT_EQ(engine.last_batch_epoch(), 1u);

  // Rotate the epoch (unmeasured — the writer side allocates by
  // design), re-warm once, and the pinned path must be zero again.
  epochs.Publish(Thm2(Data()));
  engine.QueryBatchInto(requests, &results);
  before = g_alloc_count.load(std::memory_order_relaxed);
  for (int it = 0; it < 5; ++it) {
    engine.QueryBatchInto(requests, &results);
  }
  allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "post-publish steady state allocated";
  EXPECT_EQ(engine.last_batch_epoch(), 2u);

  const std::vector<Point1D> data = Data();
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(test::IdsOf(results[i].elements),
              test::IdsOf(test::BruteTopK<Range1DProblem>(
                  data, requests[i].predicate, requests[i].k)))
        << "request " << i;
  }
}

// Federated steady state: once the coordinator's per-shard request and
// result slots, merge pool, and the caller's out buffer are warm, a
// full all-shards-healthy fan-out (scatter + TA rounds + merge +
// k-select) allocates nothing — and so does the cache-hit path, which
// never even fans out. Distinct queries with distinct ks keep both
// paths honest.
TEST(AllocRegression, FederatedFanoutAndCacheHitZeroSteadyStateAllocs) {
  TOPK_SKIP_UNDER_SANITIZERS();
  const std::vector<Point1D> data = Data();
  auto parts = federate::PartitionById(data, 3);
  std::vector<Thm2> structures;
  structures.reserve(parts.size());
  for (auto& p : parts) structures.emplace_back(std::move(p));
  std::vector<std::unique_ptr<serve::QueryEngine<Thm2>>> engines;
  std::vector<federate::Coordinator<Thm2>::Shard> shards;
  for (Thm2& s : structures) {
    engines.push_back(std::make_unique<serve::QueryEngine<Thm2>>(
        &s, serve::QueryEngine<Thm2>::Options{}));
    shards.push_back({engines.back().get(), nullptr});
  }
  // Direct-mapped: size the cache so the 12 distinct keys land in
  // distinct slots (collisions evict, which would turn repeats into
  // deterministic miss+refill cycles and halve the hit tally).
  federate::Coordinator<Thm2> coord(std::move(shards),
                                    {.cache_entries = 1024});

  Rng rng(777);
  std::vector<Range1D> queries;
  std::vector<size_t> ks;
  for (size_t i = 0; i < 12; ++i) {
    double lo = rng.NextDouble(), hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    queries.push_back({lo, hi});
    ks.push_back(1 + i * 9 % 70);
  }
  std::vector<Point1D> out;

  // Cache-hit path: warm fills, then every repeat is a hit.
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(coord.QueryInto(queries[i], ks[i], &out),
              serve::ResultStatus::kOk);
  }
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int it = 0; it < 5; ++it) {
    for (size_t i = 0; i < queries.size(); ++i) {
      coord.QueryInto(queries[i], ks[i], &out);
    }
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "federated cache-hit path allocated";
  EXPECT_GE(coord.stats().cache_hits, 5 * queries.size());

  // Full fan-out path: cache off, warm one sweep, then measure.
  std::vector<federate::Coordinator<Thm2>::Shard> shards2;
  for (auto& e : engines) shards2.push_back({e.get(), nullptr});
  federate::Coordinator<Thm2> nocache(std::move(shards2), {});
  for (int warm = 0; warm < 3; ++warm) {
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(nocache.QueryInto(queries[i], ks[i], &out),
                serve::ResultStatus::kOk);
    }
  }
  before = g_alloc_count.load(std::memory_order_relaxed);
  for (int it = 0; it < 5; ++it) {
    for (size_t i = 0; i < queries.size(); ++i) {
      nocache.QueryInto(queries[i], ks[i], &out);
    }
  }
  allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "federated fan-out path allocated";
  EXPECT_EQ(nocache.stats().cache_hits, 0u);

  // Both paths exact against brute force.
  for (size_t i = 0; i < queries.size(); ++i) {
    coord.QueryInto(queries[i], ks[i], &out);
    EXPECT_EQ(test::IdsOf(out),
              test::IdsOf(test::BruteTopK<Range1DProblem>(
                  data, queries[i], ks[i])))
        << "query " << i;
  }
}

// The free topk::Query convenience owns a throwaway Scratch — it may
// allocate, but must return bit-identical answers to the scratch path
// (the engine results are checked against brute force above; this pins
// the two entry points to each other directly).
TEST(AllocRegression, CompatQueryMatchesScratchPath) {
  const std::vector<Point1D> data = Data();
  Thm1 s(data);
  Scratch scratch;
  std::vector<Point1D> out;
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    double lo = rng.NextDouble();
    double hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    const Range1D q{lo, hi};
    const size_t k = 1 + static_cast<size_t>(i) % 40;
    s.QueryInto(q, k, &scratch, &out);
    EXPECT_EQ(test::IdsOf(out), test::IdsOf(topk::Query(s, q, k)));
  }
  EXPECT_EQ(scratch.outstanding(), 0u);
}

}  // namespace
}  // namespace topk
