// E24 — zero-allocation steady-state query path: the free topk::Query()
// convenience (each call owns a throwaway Scratch and returns a fresh
// vector, "alloc") against the warm scratch path QueryInto()
// reusing one arena and one output buffer across queries ("scratch"),
// for all four reductions; plus the serving engine's QueryBatch
// (fresh result vectors per call) against a warm QueryBatchInto
// (per-worker arenas + recycled slots); plus the SelectTopK strategy
// crossover sweep that fixes the k*log2(|pool|) < |pool| boundary in
// common/kselect.h; plus what cutting a Theorem 1 chain level's pool to
// f costs its pivot read (at the chain's pool shapes); plus
// the ordering sweep that fixes SortHeaviestFirst's std::sort -> radix
// crossover (kRadixSortMin), which also hard-checks that both orders
// are id-identical; plus the thresholded sharded flat scan, whose tau
// prefilter reads each slot's weight from the PST's own slots.
//
// In the two crossover tables a cell whose two timings lie within
// kTieBand of each other prints "tie" in its winner and agree columns,
// and "NO" marks only a clear loss for the shipped rule.
//
// Allocations are counted by replacing the global operator new in this
// TU (process-wide, so the figure covers reductions, substrates, and
// accounting at once). Timing is the E23 methodology: interleaved
// off/on sweeps, best of kReps. Plain-text table (consumed verbatim by
// tools/summarize_bench.py). Construction is never timed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/check.h"
#include "common/kselect.h"
#include "common/random.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "common/weighted.h"
#include "core/binary_search_topk.h"
#include "core/core_set_topk.h"
#include "core/counting_topk.h"
#include "core/sampled_topk.h"
#include "parallel/context.h"
#include "parallel/flat_scan.h"
#include "range1d/count_tree.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "serve/engine.h"

// GCC inlines through the replaced operator new below, sees malloc, and
// then flags the free() in the replaced operator delete as mismatched —
// a false positive: the replaced pair IS malloc/free, consistently.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

// Counting allocator (same pattern as tests/alloc_regression_test.cc):
// aligned variants are intentionally not replaced — the defaults are
// malloc-family too, so new/delete pairs stay consistent.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  std::abort();  // no exceptions in this codebase
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace topk {
namespace {

using range1d::CountTree;
using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;
using range1d::RangeMax;

using Thm1 = CoreSetTopK<Range1DProblem, PrioritySearchTree>;
using Thm2 = SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax>;
using Baseline = BinarySearchTopK<Range1DProblem, PrioritySearchTree>;
using Counting = CountingTopK<Range1DProblem, PrioritySearchTree, CountTree>;

constexpr size_t kQueries = 1000;
constexpr int kReps = 5;  // best-of to shed scheduler noise (ISSUE E24)
// Crossover cells whose two timings differ by at most this fraction of
// the faster one are ties: a near-boundary cell's two strategies cost
// about the same, so its winner flips between runs (m = 8192, k = 128
// read 58 vs 66 us in one run and 78 vs 75 us in the next). A cell
// whose timings swing further between processes can still flip; see
// EXPERIMENTS.md E24.
constexpr double kTieBand = 0.15;

bool WithinTieBand(double a_ns, double b_ns) {
  const double lo = std::min(a_ns, b_ns);
  return std::max(a_ns, b_ns) - lo <= kTieBand * lo;
}

struct SweepResult {
  double ns_per_q;
  double allocs_per_q;
};

// Compatibility path: every call constructs a Scratch and returns a
// fresh result vector. It is the "alloc" column E24 prices, so it stays
// on topk::Query.
template <typename S>
SweepResult SweepAlloc(const S& s, const std::vector<Range1D>& qs, size_t k) {
  const uint64_t a0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (const Range1D& q : qs) {
    QueryStats stats;
    auto got = topk::Query(s, q, k, &stats);
    benchmark::DoNotOptimize(got);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const uint64_t a1 = g_alloc_count.load(std::memory_order_relaxed);
  const double n = static_cast<double>(qs.size());
  return {std::chrono::duration<double, std::nano>(t1 - t0).count() / n,
          static_cast<double>(a1 - a0) / n};
}

// Scratch path: one warm arena + one output buffer across the sweep.
template <typename S>
SweepResult SweepScratch(const S& s, const std::vector<Range1D>& qs, size_t k,
                         Scratch* scratch, std::vector<Point1D>* out) {
  const uint64_t a0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (const Range1D& q : qs) {
    QueryStats stats;
    s.QueryInto(q, k, scratch, out, &stats);
    benchmark::DoNotOptimize(out->data());
  }
  const auto t1 = std::chrono::steady_clock::now();
  const uint64_t a1 = g_alloc_count.load(std::memory_order_relaxed);
  const double n = static_cast<double>(qs.size());
  return {std::chrono::duration<double, std::nano>(t1 - t0).count() / n,
          static_cast<double>(a1 - a0) / n};
}

template <typename S>
void MeasureQueryPath(const char* name, const S& s, size_t k) {
  const std::vector<Range1D> qs = bench::UniformRanges1D(kQueries, 17 + k);
  Scratch scratch;
  std::vector<Point1D> out;
  SweepScratch(s, qs, k, &scratch, &out);  // warm the arena (untimed)
  double alloc_ns = 1e300, scratch_ns = 1e300;
  double alloc_aq = 0, scratch_aq = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const SweepResult a = SweepAlloc(s, qs, k);
    alloc_ns = std::min(alloc_ns, a.ns_per_q);
    alloc_aq = a.allocs_per_q;  // deterministic across reps
    const SweepResult b = SweepScratch(s, qs, k, &scratch, &out);
    scratch_ns = std::min(scratch_ns, b.ns_per_q);
    scratch_aq = b.allocs_per_q;
  }
  // The headline claim, enforced: a warm scratch sweep is allocation-
  // free. (The alloc path's count is reported, not asserted.)
  TOPK_CHECK_EQ(static_cast<uint64_t>(scratch_aq * kQueries), 0u);
  std::printf("%8s %6zu %12.1f %12.1f %+9.1f%% %10.2f %10.2f\n", name, k,
              alloc_ns, scratch_ns,
              100.0 * (scratch_ns - alloc_ns) / alloc_ns, alloc_aq,
              scratch_aq);
}

// ---- engine batches: QueryBatch (fresh results) vs warm QueryBatchInto.

std::vector<serve::Request<Range1D>> MakeRequests(size_t count,
                                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<serve::Request<Range1D>> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    serve::Request<Range1D> r;
    r.predicate = bench::UniformRange1D(&rng);
    r.k = 1 + i * 7 % 64;
    requests.push_back(r);
  }
  return requests;
}

template <typename S>
void MeasureEngine(const char* name, const S& s, size_t threads) {
  using Engine = serve::QueryEngine<S>;
  typename Engine::Options options;
  options.num_threads = threads;
  Engine engine(&s, options);
  const std::vector<serve::Request<Range1D>> requests = MakeRequests(256, 5);
  constexpr int kBatches = 10;

  engine.Warmup(requests);
  std::vector<typename Engine::Result> results;
  engine.QueryBatchInto(requests, &results);  // warm the recycled slots

  double alloc_ns = 1e300, scratch_ns = 1e300;
  double alloc_ar = 0, scratch_ar = 0;
  const double served =
      static_cast<double>(kBatches) * static_cast<double>(requests.size());
  for (int rep = 0; rep < kReps; ++rep) {
    {
      const uint64_t a0 = g_alloc_count.load(std::memory_order_relaxed);
      const auto t0 = std::chrono::steady_clock::now();
      for (int b = 0; b < kBatches; ++b) {
        auto fresh = engine.QueryBatch(requests);
        benchmark::DoNotOptimize(fresh);
      }
      const auto t1 = std::chrono::steady_clock::now();
      const uint64_t a1 = g_alloc_count.load(std::memory_order_relaxed);
      alloc_ns = std::min(
          alloc_ns,
          std::chrono::duration<double, std::nano>(t1 - t0).count() / served);
      alloc_ar = static_cast<double>(a1 - a0) / served;
    }
    {
      const uint64_t a0 = g_alloc_count.load(std::memory_order_relaxed);
      const auto t0 = std::chrono::steady_clock::now();
      for (int b = 0; b < kBatches; ++b) {
        engine.QueryBatchInto(requests, &results);
      }
      const auto t1 = std::chrono::steady_clock::now();
      const uint64_t a1 = g_alloc_count.load(std::memory_order_relaxed);
      scratch_ns = std::min(
          scratch_ns,
          std::chrono::duration<double, std::nano>(t1 - t0).count() / served);
      scratch_ar = static_cast<double>(a1 - a0) / served;
    }
  }
  TOPK_CHECK_EQ(static_cast<uint64_t>(scratch_ar * served), 0u);
  std::printf("%8s %6zu %12.1f %12.1f %+9.1f%% %10.2f %10.2f %10.2f\n", name,
              threads, alloc_ns, scratch_ns,
              100.0 * (scratch_ns - alloc_ns) / alloc_ns, alloc_ar,
              scratch_ar, 1e9 / scratch_ns);
}

// ---- SelectTopK strategy crossover: partial_sort vs nth_element+sort.

// Mean ns of `select(buf)` on a fresh copy of `base`, over kTrials.
template <typename Select>
double TimeSelect(const std::vector<Point1D>& base,
                  std::vector<Point1D>* buf, Select select) {
  constexpr int kTrials = 8;
  double total_ns = 0;
  for (int t = 0; t < kTrials; ++t) {
    *buf = base;  // copy outside the timed region
    const auto t0 = std::chrono::steady_clock::now();
    select(buf);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(buf->data());
    total_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
  }
  return total_ns / kTrials;
}

void CrossoverRow(const std::vector<Point1D>& base,
                  std::vector<Point1D>* buf, size_t k) {
  const size_t m = base.size();
  auto heap = [k](std::vector<Point1D>* b) {
    std::partial_sort(b->begin(), b->begin() + static_cast<long>(k),
                      b->end(), ByWeightDesc());
    b->resize(k);
  };
  auto nth = [k](std::vector<Point1D>* b) {
    std::nth_element(b->begin(), b->begin() + static_cast<long>(k), b->end(),
                     ByWeightDesc());
    b->resize(k);
    std::sort(b->begin(), b->end(), ByWeightDesc());
  };
  double heap_ns = 1e300, nth_ns = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    heap_ns = std::min(heap_ns, TimeSelect(base, buf, heap));
    nth_ns = std::min(nth_ns, TimeSelect(base, buf, nth));
  }
  const bool tie = WithinTieBand(heap_ns, nth_ns);
  const bool heap_won = heap_ns <= nth_ns;
  const bool shipped = kselect_internal::UseHeapSelect(k, m);
  std::printf("%8zu %8zu %12.1f %12.1f %13s %13s %6s\n", m, k,
              heap_ns / 1e3, nth_ns / 1e3,
              tie ? "tie" : heap_won ? "partial_sort" : "nth_element",
              shipped ? "partial_sort" : "nth_element",
              tie ? "tie" : heap_won == shipped ? "yes" : "NO");
}

// ---- Ordering crossover: std::sort vs the radix path of
// SortHeaviestFirst, on a warm pair of work buffers (as a warm arena
// lends them). Both orders must be id-identical: a wrong radix order
// fails the run, and with it CI's bench smoke.
void OrderingRow(const char* weights, const std::vector<Point1D>& base,
                 std::vector<Point1D>* buf) {
  const size_t m = base.size();
  std::vector<RadixItem> items;
  std::vector<Point1D> gather;
  auto by_sort = [](std::vector<Point1D>* b) {
    std::sort(b->begin(), b->end(), ByWeightDesc());
  };
  auto by_radix = [&](std::vector<Point1D>* b) {
    kselect_internal::RadixSortHeaviestFirst(b, &items, &gather);
  };
  std::vector<Point1D> want = base;
  by_sort(&want);
  *buf = base;
  by_radix(buf);
  TOPK_CHECK_EQ(buf->size(), m);
  for (size_t i = 0; i < m; ++i) TOPK_CHECK_EQ((*buf)[i].id, want[i].id);
  double sort_ns = 1e300, radix_ns = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    sort_ns = std::min(sort_ns, TimeSelect(base, buf, by_sort));
    radix_ns = std::min(radix_ns, TimeSelect(base, buf, by_radix));
  }
  const bool tie = WithinTieBand(sort_ns, radix_ns);
  const bool radix_won = radix_ns < sort_ns;
  const bool shipped = m >= kRadixSortMin;
  std::printf("%8s %8zu %12.1f %12.1f %9.2fx %9s %9s %6s\n", weights, m,
              sort_ns / 1e3, radix_ns / 1e3, sort_ns / radix_ns,
              tie ? "tie" : radix_won ? "radix" : "std::sort",
              shipped ? "radix" : "std::sort",
              tie ? "tie" : radix_won == shipped ? "yes" : "NO");
}

// Pool of m elements whose weights repeat: m/8 + 1 integer values, so
// the equal-weight id fix-up runs on nearly every element.
std::vector<Point1D> ClumpedPool(size_t m, uint64_t seed) {
  std::vector<Point1D> pool = bench::Points1D(m, seed);
  Rng rng(seed);
  for (Point1D& p : pool) p.weight = static_cast<double>(rng.Below(m / 8 + 1));
  return pool;
}

// ---- Chain-level selection: what cutting a pool to f costs. A
// TopFChain level reads one element of the level below's pool: its
// pivot at rank CoreSetRank(n) (189 at n = 2^17). That pool is a
// completed probe of up to 4f + 1 or a pivot fetch of up to 8f, handed
// up uncut, so the reader runs one std::nth_element on it; cutting it to
// f first (SelectTopKUnordered) is a second O(|pool|) selection. At
// n = 2^17, f = 1632 is serve-thm1's (the RAM default B =
// kRamBlockSizeThm1 = 16) and f = 4352 the paper's B = 64. Both paths
// must read the same pivot: a wrong one fails the run, and with it CI's
// bench smoke.
void ChainSelectRow(const std::vector<Point1D>& base,
                    std::vector<Point1D>* buf, size_t f, size_t rank) {
  uint64_t cut_id = 0, uncut_id = 0;
  auto pivot_id = [rank](std::vector<Point1D>* b) {
    std::nth_element(b->begin(), b->begin() + static_cast<long>(rank - 1),
                     b->end(), ByWeightDesc());
    return (*b)[rank - 1].id;
  };
  double cut_ns = 1e300, uncut_ns = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    cut_ns = std::min(cut_ns,
                      TimeSelect(base, buf, [&](std::vector<Point1D>* b) {
                        SelectTopKUnordered(b, f);
                        cut_id = pivot_id(b);
                      }));
    uncut_ns = std::min(uncut_ns,
                        TimeSelect(base, buf, [&](std::vector<Point1D>* b) {
                          uncut_id = pivot_id(b);
                        }));
  }
  TOPK_CHECK_EQ(cut_id, uncut_id);
  std::printf("%8zu %8zu %12.1f %12.1f %12.1f\n", base.size(), f,
              cut_ns / 1e3, uncut_ns / 1e3, (cut_ns - uncut_ns) / 1e3);
}

// ---- Thresholded sharded flat scan: parallel::FlatScanTopKInto over a
// PST's own slots with a finite tau, so every 512-slot block runs the
// branchless compress over the slot weights before the predicate.
// perfbench's deepk-parallel scans only at tau = -inf, so this is the
// one timing of the prefilter. Each row keeps `keep` of the weights
// (tau is the weight of rank keep * n; 100% keeps all of them but
// still runs the prefilter) and reports the best of kScanReps scans on
// a warm arena.
void FlatScanRows() {
  constexpr size_t kN = size_t{1} << 17;
  constexpr size_t kShards = 4;
  constexpr size_t kK = 1024;
  constexpr int kScanReps = 100;
  const std::vector<Point1D> data = bench::Points1D(kN, 83);
  const PrioritySearchTree pst(data);
  const std::vector<double> desc = SortedWeightsDesc(data);
  const Range1D q{0.1, 0.9};
  parallel::Context par(kShards);
  Scratch scratch;
  std::vector<Point1D> out;
  for (const size_t keep_pct : {size_t{100}, size_t{50}, size_t{10},
                                size_t{1}}) {
    const double tau = desc[kN * keep_pct / 100 - 1];
    // Untimed warm-up; it also fixes the row's match count.
    const size_t matched = parallel::FlatScanTopKInto<Range1DProblem>(
        pst, q, tau, kK, &par, &scratch, &out);
    double best_ns = 1e300;
    for (int rep = 0; rep < kScanReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      parallel::FlatScanTopKInto<Range1DProblem>(pst, q, tau, kK, &par,
                                                 &scratch, &out);
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(out.data());
      best_ns = std::min(
          best_ns, std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
    std::printf("%7zu%% %12.1f %10zu %8zu %10.1f\n", keep_pct, tau, matched,
                out.size(), best_ns / 1e3);
  }
}

void Run() {
  const size_t n = 1 << 16;
  std::printf(
      "E24: zero-allocation steady-state query path (n=2^16,\n"
      "%zu queries/row, best of %d interleaved sweeps)\n\n"
      "Per-reduction: compat Query() (throwaway Scratch + fresh result\n"
      "vector per call) vs warm QueryInto() (one arena + one buffer)\n",
      kQueries, kReps);
  std::printf("%8s %6s %12s %12s %10s %10s %10s\n", "struct", "k",
              "alloc ns/q", "scrtch ns/q", "delta", "allocs/q", "scr al/q");
  const Thm1 thm1(bench::Points1D(n, 23));
  const Thm2 thm2(bench::Points1D(n, 23));
  const Baseline baseline(bench::Points1D(n, 23));
  const Counting counting(bench::Points1D(n, 23));
  for (size_t k : {size_t{16}, size_t{256}}) {
    MeasureQueryPath("thm1", thm1, k);
    MeasureQueryPath("thm2", thm2, k);
    MeasureQueryPath("baseline", baseline, k);
    MeasureQueryPath("counting", counting, k);
  }

  std::printf(
      "\nEngine batches (256 mixed-k requests/batch, thm2): QueryBatch\n"
      "(fresh result vectors per call) vs warm QueryBatchInto (recycled\n"
      "slots + per-worker arenas)\n");
  std::printf("%8s %6s %12s %12s %10s %10s %10s %10s\n", "struct", "thr",
              "alloc ns/r", "scrtch ns/r", "delta", "allocs/r", "scr al/r",
              "q/s");
  for (size_t threads : {size_t{1}, size_t{4}}) {
    MeasureEngine("thm2", thm2, threads);
  }

  std::printf(
      "\nSelectTopK strategy crossover vs the shipped UseHeapSelect rule\n"
      "(common/kselect.h): k <= m/512 on cache-resident pools,\n"
      "k^2 < 10m beyond ~8K elements; tie = timings within %.0f%%\n",
      100 * kTieBand);
  std::printf("%8s %8s %12s %12s %13s %13s %6s\n", "m", "k", "heap us",
              "nth us", "winner", "shipped", "agree");
  for (const size_t m :
       {size_t{1} << 10, size_t{1} << 13, size_t{1} << 16}) {
    const std::vector<Point1D> base = bench::Points1D(m, 71);
    std::vector<Point1D> buf;
    buf.reserve(m);
    for (const size_t k : {size_t{2}, size_t{8}, size_t{32}, size_t{128},
                           size_t{512}, size_t{2048}}) {
      if (k >= m) break;
      CrossoverRow(base, &buf, k);
    }
  }
  const size_t pivot_rank =
      CoreSetRank(size_t{1} << 17, Range1DProblem::kLambda, 1.0);
  std::printf(
      "\nChain-level pivot read at n = 2^17: rank %zu of a pool of m;\n"
      "f = 1632 (serve-thm1, RAM B = 16) and f = 4352 (B = 64). Cut to f\n"
      "then nth_element vs nth_element on the uncut pool, same pivot\n"
      "id checked\n",
      pivot_rank);
  std::printf("%8s %8s %12s %12s %12s\n", "m", "f", "cut us", "uncut us",
              "saved us");
  for (const size_t f : {size_t{1632}, size_t{4352}}) {
    for (const size_t m : {4 * f + 1, 8 * f}) {
      const std::vector<Point1D> base = bench::Points1D(m, 73);
      std::vector<Point1D> buf;
      buf.reserve(m);
      ChainSelectRow(base, &buf, f, pivot_rank);
    }
  }
  std::printf(
      "\nOrdering crossover vs the shipped kRadixSortMin = %zu\n"
      "(common/kselect.h SortHeaviestFirst): std::sort(ByWeightDesc) vs\n"
      "the radix path on warm work buffers, id-identical orders checked;\n"
      "tie = timings within %.0f%%\n",
      kRadixSortMin, 100 * kTieBand);
  std::printf("%8s %8s %12s %12s %10s %9s %9s %6s\n", "weights", "m",
              "sort us", "radix us", "speedup", "winner", "shipped",
              "agree");
  for (const bool clumped : {false, true}) {
    for (size_t m = 256; m <= (size_t{1} << 17); m *= 2) {
      const std::vector<Point1D> base =
          clumped ? ClumpedPool(m, 79) : bench::Points1D(m, 79);
      std::vector<Point1D> buf;
      buf.reserve(m);
      OrderingRow(clumped ? "clumped" : "uniform", base, &buf);
    }
  }
  std::printf(
      "\nThresholded sharded flat scan (parallel/flat_scan.h): PST n = 2^17,\n"
      "4 shards, q = [0.1, 0.9], k = 1024, tau keeping a share of the\n"
      "weights; best of 100 scans\n");
  std::printf("%8s %12s %10s %8s %10s\n", "keep", "tau", "matched", "out",
              "scan us");
  FlatScanRows();
  std::printf(
      "\nExpected shape: scratch path within noise of (or faster than)\n"
      "the alloc path with 0 allocs/q once warm; in both crossover\n"
      "tables a cell near the boundary, where the two strategies cost\n"
      "about the same, reads tie, and NO marks a cell where the shipped\n"
      "rule lost by more than the band; the chain rows' \"saved\" column\n"
      "is the sort each chain fetch no longer pays; the flat scan's time\n"
      "falls with the share tau keeps.\n");
}

}  // namespace
}  // namespace topk

int main() {
  topk::Run();
  return 0;
}
