// E2 — output-sensitivity: query cost as a function of k at fixed n
// (1D range reporting).
//
// Claim under test: Theorem 1's output term is O(k/B) — linear in k
// with no multiplier — while the binary-search baseline's is
// O((k/B) log n) (every one of its ~log n probes fetches up to k
// elements). Expected shape: both linear in k for large k, with the
// baseline's slope ~log n times steeper.

#include <cstddef>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/binary_search_topk.h"
#include "core/core_set_topk.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"

namespace topk {
namespace {

using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;

constexpr size_t kN = 1 << 17;

Range1D RandomWideQuery(Rng* rng) {
  // Wide ranges so |q(D)| >> k and the k-dependent paths are exercised.
  const double a = rng->NextDouble() * 0.25;
  return {a, a + 0.7};
}

// Per-query work comes from this many fixed queries, run untimed.
constexpr size_t kCountedQueries = 128;

// Times random wide queries at k through a warm arena; emitted/query
// comes from kCountedQueries fixed untimed ones.
template <typename S>
void TimeQueriesAtK(benchmark::State& state, const S& s) {
  const size_t k = static_cast<size_t>(state.range(0));
  const QueryStats stats =
      bench::FixedQueryStats(s, k, kCountedQueries, RandomWideQuery);
  bench::WarmQuery<S> query(s);
  query(Range1D{0.0, 0.7}, k);  // warms the arena, untimed
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(query(RandomWideQuery(&rng), k).data());
  }
  state.counters["k"] = static_cast<double>(k);
  state.counters["emitted/query"] =
      static_cast<double>(stats.elements_emitted) /
      static_cast<double>(kCountedQueries);
}

// The paper's shape: B = 64, the EM block the theorem is stated for.
void BM_Thm1CoreSet_K(benchmark::State& state) {
  using S = CoreSetTopK<Range1DProblem, PrioritySearchTree>;
  TimeQueriesAtK(state, bench::Cached<S>(kN, 1, [](size_t m, uint64_t seed) {
    return S(bench::Points1D(m, seed), {.block_size = 64});
  }));
}

void BM_Thm1Baseline_K(benchmark::State& state) {
  using S = BinarySearchTopK<Range1DProblem, PrioritySearchTree>;
  TimeQueriesAtK(state, bench::Cached<S>(kN, 1, [](size_t m, uint64_t seed) {
    return S(bench::Points1D(m, seed));
  }));
}

BENCHMARK(BM_Thm1CoreSet_K)->RangeMultiplier(4)->Range(1, 1 << 14);
BENCHMARK(BM_Thm1Baseline_K)->RangeMultiplier(4)->Range(1, 1 << 14);

}  // namespace
}  // namespace topk

BENCHMARK_MAIN();
