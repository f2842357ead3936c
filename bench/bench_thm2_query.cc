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

using Thm2 = SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax>;

// Per-query work comes from this many fixed queries, run untimed.
constexpr size_t kCountedQueries = 256;

// A wide range (70% of the domain): deep enough for every k swept.
Range1D WideQuery(Rng* rng) {
  const double a = rng->NextDouble() * 0.25;
  return {a, a + 0.7};
}

// Times queries at k drawn by `draw` from Rng(42) through a warm arena;
// rounds/query (when asked) comes from kCountedQueries fixed untimed
// ones, so it is the same on every run.
template <typename S, typename Draw>
void TimeQueries(benchmark::State& state, const S& s, size_t k, Draw draw,
                 bool count_rounds) {
  if (count_rounds) {
    const QueryStats stats =
        bench::FixedQueryStats(s, k, kCountedQueries, draw);
    state.counters["rounds/query"] =
        static_cast<double>(stats.rounds) /
        static_cast<double>(kCountedQueries);
  }
  bench::WarmQuery<S> query(s);
  query(Range1D{0.0, 1.0}, k);  // warms the arena, untimed
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(query(draw(&rng), k).data());
  }
}

const Thm2& Thm2Over(size_t n) {
  return bench::Cached<Thm2>(n, 1, [](size_t m, uint64_t seed) {
    return Thm2(bench::Points1D(m, seed));
  });
}

void BM_Thm2_N(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  TimeQueries(state, Thm2Over(n), 16, bench::UniformRange1D,
              /*count_rounds=*/true);
  state.counters["n"] = static_cast<double>(n);
}

void BM_Thm2_K(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  TimeQueries(state, Thm2Over(1 << 17), k, WideQuery, /*count_rounds=*/true);
  state.counters["k"] = static_cast<double>(k);
}

void BM_Thm1_K_Reference(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  using S = CoreSetTopK<Range1DProblem, PrioritySearchTree>;
  const S& s = bench::Cached<S>(1 << 17, 1, [](size_t m, uint64_t seed) {
    return S(bench::Points1D(m, seed));
  });
  TimeQueries(state, s, k, WideQuery, /*count_rounds=*/false);
  state.counters["k"] = static_cast<double>(k);
}

BENCHMARK(BM_Thm2_N)->RangeMultiplier(4)->Range(1 << 12, 1 << 20);
BENCHMARK(BM_Thm2_K)->RangeMultiplier(4)->Range(1, 1 << 14);
BENCHMARK(BM_Thm1_K_Reference)->RangeMultiplier(4)->Range(1, 1 << 14);

}  // namespace
}  // namespace topk

BENCHMARK_MAIN();
