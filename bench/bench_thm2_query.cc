// E3 — Theorem 2: query cost O(Q_pri + Q_max + k/B) with no
// degradation, versus Theorem 1 and the binary-search baseline
// (1D range reporting).
//
// Expected shape: SampledTopK tracks the bare prioritized+max costs —
// flat-ish polylog growth in n, linear in k with unit slope — and beats
// Theorem 1 on small k (no f-sized monitored probes) while matching it
// on large k.

#include <cstddef>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/binary_search_topk.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"

namespace topk {
namespace {

using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;
using range1d::RangeMax;

Range1D RandomQuery(Rng* rng) {
  double a = rng->NextDouble(), b = rng->NextDouble();
  if (a > b) std::swap(a, b);
  return {a, b};
}

using Thm2 = SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax>;

void BM_Thm2_N(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Thm2& s = bench::Cached<Thm2>(n, 1, [](size_t m, uint64_t seed) {
    return Thm2(bench::Points1D(m, seed));
  });
  Rng rng(42);
  QueryStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topk::Query(s, RandomQuery(&rng), 16, &stats));
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["rounds/query"] =
      static_cast<double>(stats.rounds) /
      static_cast<double>(state.iterations());
}

void BM_Thm2_K(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t n = 1 << 17;
  const Thm2& s = bench::Cached<Thm2>(n, 1, [](size_t m, uint64_t seed) {
    return Thm2(bench::Points1D(m, seed));
  });
  Rng rng(42);
  QueryStats stats;
  for (auto _ : state) {
    const double a = rng.NextDouble() * 0.25;
    benchmark::DoNotOptimize(topk::Query(s, {a, a + 0.7}, k, &stats));
  }
  state.counters["k"] = static_cast<double>(k);
  state.counters["rounds/query"] =
      static_cast<double>(stats.rounds) /
      static_cast<double>(state.iterations());
}

void BM_Thm1_K_Reference(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t n = 1 << 17;
  using S = CoreSetTopK<Range1DProblem, PrioritySearchTree>;
  const S& s = bench::Cached<S>(n, 1, [](size_t m, uint64_t seed) {
    return S(bench::Points1D(m, seed));
  });
  Rng rng(42);
  for (auto _ : state) {
    const double a = rng.NextDouble() * 0.25;
    benchmark::DoNotOptimize(topk::Query(s, {a, a + 0.7}, k));
  }
  state.counters["k"] = static_cast<double>(k);
}

BENCHMARK(BM_Thm2_N)->RangeMultiplier(4)->Range(1 << 12, 1 << 20);
BENCHMARK(BM_Thm2_K)->RangeMultiplier(4)->Range(1, 1 << 14);
BENCHMARK(BM_Thm1_K_Reference)->RangeMultiplier(4)->Range(1, 1 << 14);

}  // namespace
}  // namespace topk

BENCHMARK_MAIN();
