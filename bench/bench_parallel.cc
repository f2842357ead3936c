// E27 — intra-query parallelism: batch latency of the degenerate-fetch
// bucket (largest k, where every reduction bottoms out in a full or
// near-full monitored fetch) vs intra-query worker count, for all four
// reductions.
//
// Claims under test:
//   * results are bit-identical to the serial path at every worker
//     count (checked against single-threaded references every rep);
//   * the sharded flat kernel keeps the zero-allocation steady state —
//     a warm engine serves every measured batch at exactly 0 heap
//     allocations, enforced by a hard TOPK_CHECK (the bench exits
//     nonzero on regression, same contract as E24);
//   * p99 of the deep-k bucket improves with workers when the machine
//     has cores to give (this container is often pinned to ONE core —
//     the printed cpus value says what was actually available; worker
//     counts beyond it run unclamped on purpose so the sharded code
//     path is always measured, and may not help wall-clock there).
//
// Plain-text table + one metrics JSON line per configuration
// (consumed by tools/summarize_bench.py). Construction is never timed.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "common/random.h"
#include "core/binary_search_topk.h"
#include "core/core_set_topk.h"
#include "core/counting_topk.h"
#include "core/sampled_topk.h"
#include "range1d/count_tree.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "serve/engine.h"
#include "serve/metrics.h"

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
}  // namespace

// Counting allocator (same pattern as bench_perf / the alloc
// regression test): every allocation in the process ticks the counter.
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

constexpr size_t kN = 1 << 17;
constexpr size_t kBatch = 48;
constexpr size_t kTimedReps = 3;

// The degenerate-fetch bucket: k >= n/2 forces Theorem 1's full scan;
// the same depth drives Theorem 2 to its terminal scan, counting to a
// near-full tally fetch, and the baseline's final fetch through the
// sharded kernel. Wide ranges keep |q(D)| large so the scans dominate.
std::vector<serve::Request<Range1D>> MakeWorkload() {
  Rng rng(0x5e27);
  std::vector<serve::Request<Range1D>> requests;
  requests.reserve(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    double lo = rng.NextDouble() * 0.2;
    double hi = 0.8 + rng.NextDouble() * 0.2;
    requests.push_back({{lo, hi}, kN / 2 + 1 + i});
  }
  return requests;
}

template <typename S>
void RunStructure(const char* name, const S& structure,
                  const std::vector<serve::Request<Range1D>>& requests) {
  using Engine = serve::QueryEngine<S>;

  // Single-threaded, serial-path reference answers.
  std::vector<std::vector<uint64_t>> reference;
  reference.reserve(requests.size());
  for (const auto& r : requests) {
    auto answer = topk::Query(structure, r.predicate, r.k);
    std::vector<uint64_t> ids;
    ids.reserve(answer.size());
    for (const auto& e : answer) ids.push_back(e.id);
    reference.push_back(std::move(ids));
  }

  double p99_1 = 0.0;
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    serve::Metrics metrics;
    Engine engine(&structure,
                  {.num_threads = 1,
                   .intra_query_workers = workers,
                   .unclamped_intra_query_workers = true},
                  &metrics);
    TOPK_CHECK_EQ(engine.intra_query_workers(), workers);

    engine.Warmup(requests);
    std::vector<typename Engine::Result> results;
    engine.QueryBatchInto(requests, &results);  // warm the result slots

    bool exact = true;
    const uint64_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    double best_s = 1e30;
    for (size_t rep = 0; rep < kTimedReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      engine.QueryBatchInto(requests, &results);
      const auto t1 = std::chrono::steady_clock::now();
      best_s = std::min(best_s,
                        std::chrono::duration<double>(t1 - t0).count());
      for (size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok()) exact = false;
        const auto& elems = results[i].elements;
        if (elems.size() != reference[i].size()) exact = false;
        for (size_t j = 0; exact && j < elems.size(); ++j) {
          if (elems[j].id != reference[i][j]) exact = false;
        }
      }
    }
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    // The zero-alloc steady state is a hard contract, not a report.
    TOPK_CHECK_EQ(allocs, uint64_t{0});

    const serve::MetricsSnapshot m = metrics.Snapshot();
    const double p99 = m.latency.PercentileNs(99.0);
    if (workers == 1) p99_1 = p99;
    std::printf("%-10s %7zu %10.2f %9.1f %9.1f %9.1f %8.2fx %6zu %6s\n",
                name, workers, best_s * 1e3, m.latency.PercentileNs(50.0) / 1e3,
                p99 / 1e3, static_cast<double>(m.latency.max_ns()) / 1e3,
                p99 > 0 ? p99_1 / p99 : 0.0, static_cast<size_t>(allocs),
                exact ? "ok" : "FAIL");
    std::printf("metrics_json structure=%s workers=%zu %s\n", name, workers,
                serve::ToJson(m).c_str());
    if (!exact) std::exit(1);
  }
}

void Run() {
  std::printf(
      "E27: deep-k (degenerate-fetch) batch latency vs intra-query\n"
      "workers (n=%zu, batch=%zu requests, k ~ n/2, 1 request worker;\n"
      "hardware_concurrency=%u). Columns: batch wall ms (best of %zu),\n"
      "latency p50/p99/max us (all reps), p99 speedup vs 1 worker,\n"
      "measured-window allocations (must be 0), exactness.\n",
      kN, kBatch, std::thread::hardware_concurrency(), kTimedReps);
  std::printf("%-10s %7s %10s %9s %9s %9s %9s %6s %6s\n", "structure",
              "workers", "batch_ms", "p50_us", "p99_us", "max_us",
              "p99_spd", "allocs", "exact");

  const std::vector<Point1D> data = bench::Points1D(kN, 27);

  const CoreSetTopK<Range1DProblem, PrioritySearchTree> thm1(data);
  const SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax> thm2(data);
  const BinarySearchTopK<Range1DProblem, PrioritySearchTree> baseline(data);
  const CountingTopK<Range1DProblem, PrioritySearchTree, CountTree> counting(
      data);

  const std::vector<serve::Request<Range1D>> requests = MakeWorkload();
  RunStructure("thm1", thm1, requests);
  RunStructure("thm2", thm2, requests);
  RunStructure("baseline", baseline, requests);
  RunStructure("counting", counting, requests);
}

}  // namespace
}  // namespace topk

int main() {
  topk::Run();
  return 0;
}
