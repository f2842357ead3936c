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

void BM_Thm1CoreSet_K(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  using S = CoreSetTopK<Range1DProblem, PrioritySearchTree>;
  const S& s = bench::Cached<S>(kN, 1, [](size_t m, uint64_t seed) {
    return S(bench::Points1D(m, seed));
  });
  bench::WarmQuery<S> query(s);
  query(Range1D{0.0, 0.7}, k);  // warms the arena, untimed
  Rng rng(7);
  QueryStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(query(RandomWideQuery(&rng), k, &stats).data());
  }
  state.counters["k"] = static_cast<double>(k);
  state.counters["emitted/query"] =
      static_cast<double>(stats.elements_emitted) /
      static_cast<double>(state.iterations());
}

void BM_Thm1Baseline_K(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  using S = BinarySearchTopK<Range1DProblem, PrioritySearchTree>;
  const S& s = bench::Cached<S>(kN, 1, [](size_t m, uint64_t seed) {
    return S(bench::Points1D(m, seed));
  });
  bench::WarmQuery<S> query(s);
  query(Range1D{0.0, 0.7}, k);  // warms the arena, untimed
  Rng rng(7);
  QueryStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(query(RandomWideQuery(&rng), k, &stats).data());
  }
  state.counters["k"] = static_cast<double>(k);
  state.counters["emitted/query"] =
      static_cast<double>(stats.elements_emitted) /
      static_cast<double>(state.iterations());
}

BENCHMARK(BM_Thm1CoreSet_K)->RangeMultiplier(4)->Range(1, 1 << 14);
BENCHMARK(BM_Thm1Baseline_K)->RangeMultiplier(4)->Range(1, 1 << 14);

}  // namespace
}  // namespace topk

BENCHMARK_MAIN();
