// E14 — the reverse reduction (Section 1.2): prioritized reporting
// synthesized from a top-k structure by k-doubling, compared against a
// native prioritized structure. Claim: no asymptotic loss — the
// synthesized query costs O(Q_top + t/B) amortized over the doubling.

#include <cstddef>
#include <limits>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/random.h"
#include "core/core_set_topk.h"
#include "core/sink.h"
#include "core/topk_to_prioritized.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"

namespace topk {
namespace {

using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;

// tau at the 99.9th percentile of weights in [0, 1e6): ~n/1000 results.
constexpr double kTau = 0.999e6;

void BM_NativePrioritized(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const PrioritySearchTree& s = bench::Cached<PrioritySearchTree>(
      n, 1, [](size_t m, uint64_t seed) {
        return PrioritySearchTree(bench::Points1D(m, seed));
      });
  Rng rng(4);
  for (auto _ : state) {
    size_t count = 0;
    IssuePrioritized(s, bench::UniformRange1D(&rng), kTau,
                     [&count](const Point1D&) {
                       ++count;
                       return true;
                     },
                     nullptr);
    benchmark::DoNotOptimize(count);
  }
  state.counters["n"] = static_cast<double>(n);
}

void BM_SynthesizedFromTopK(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  using Wrapped =
      TopKToPrioritized<CoreSetTopK<Range1DProblem, PrioritySearchTree>>;
  const Wrapped& s = bench::Cached<Wrapped>(n, 1, [](size_t m,
                                                     uint64_t seed) {
    return Wrapped(CoreSetTopK<Range1DProblem, PrioritySearchTree>(
        bench::Points1D(m, seed)));
  });
  Rng rng(4);
  for (auto _ : state) {
    size_t count = 0;
    IssuePrioritized(s, bench::UniformRange1D(&rng), kTau,
                     [&count](const Point1D&) {
                       ++count;
                       return true;
                     },
                     nullptr);
    benchmark::DoNotOptimize(count);
  }
  state.counters["n"] = static_cast<double>(n);
}

BENCHMARK(BM_NativePrioritized)->RangeMultiplier(4)->Range(1 << 12, 1 << 18);
BENCHMARK(BM_SynthesizedFromTopK)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 18);

}  // namespace
}  // namespace topk

BENCHMARK_MAIN();
