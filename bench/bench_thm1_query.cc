// E1 — Theorem 1 vs the prior reduction [28] vs naive scan:
// query cost as a function of n at fixed k (1D range reporting).
//
// Claim under test: CoreSetTopK answers in O(Q_pri * log_B n + k/B)
// while the binary-search baseline pays O(Q_pri log n + (k/B) log n) and
// the scan pays O(n/B). Expected shape: both reductions are orders of
// magnitude below the scan and grow polylogarithmically; Theorem 1 stays
// below the baseline, with the gap widening with n (log_B vs log_2
// probes, and no log multiplier on the constant f-sized fetches).

#include <cstddef>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/binary_search_topk.h"
#include "core/core_set_topk.h"
#include "core/scan_topk.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"

namespace topk {
namespace {

using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;

constexpr size_t kK = 16;

// Per-query work comes from this many fixed queries, run untimed.
constexpr size_t kCountedQueries = 256;

// Times random queries through a warm arena; nodes/query (when asked)
// comes from kCountedQueries fixed untimed ones.
template <typename S>
void TimeQueries(benchmark::State& state, const S& s, bool count_nodes) {
  if (count_nodes) {
    const QueryStats stats =
        bench::FixedQueryStats(s, kK, kCountedQueries,
                              bench::UniformRange1D);
    state.counters["nodes/query"] =
        static_cast<double>(stats.nodes_visited) /
        static_cast<double>(kCountedQueries);
    state.counters["fallbacks"] = static_cast<double>(stats.fallbacks);
  }
  bench::WarmQuery<S> query(s);
  query(Range1D{0.0, 1.0}, kK);  // warms the arena, untimed
  Rng rng(99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(query(bench::UniformRange1D(&rng), kK).data());
  }
  state.counters["n"] = static_cast<double>(s.size());
}

// The paper's shape: B = 64, the EM block the theorem is stated for.
void BM_Thm1CoreSet(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  using S = CoreSetTopK<Range1DProblem, PrioritySearchTree>;
  const S& s = bench::Cached<S>(n, 1, [](size_t m, uint64_t seed) {
    return S(bench::Points1D(m, seed), {.block_size = 64});
  });
  TimeQueries(state, s, /*count_nodes=*/true);
}

void BM_Thm1BinarySearchBaseline(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  using S = BinarySearchTopK<Range1DProblem, PrioritySearchTree>;
  const S& s = bench::Cached<S>(n, 1, [](size_t m, uint64_t seed) {
    return S(bench::Points1D(m, seed));
  });
  TimeQueries(state, s, /*count_nodes=*/true);
}

void BM_Thm1Scan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  using S = ScanTopK<Range1DProblem>;
  const S& s = bench::Cached<S>(n, 1, [](size_t m, uint64_t seed) {
    return S(bench::Points1D(m, seed));
  });
  TimeQueries(state, s, /*count_nodes=*/false);
}

BENCHMARK(BM_Thm1CoreSet)->RangeMultiplier(4)->Range(1 << 12, 1 << 20);
BENCHMARK(BM_Thm1BinarySearchBaseline)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 20);
BENCHMARK(BM_Thm1Scan)->RangeMultiplier(4)->Range(1 << 12, 1 << 20);

}  // namespace
}  // namespace topk

BENCHMARK_MAIN();
