// E5 — Theorem 2 updates: O(U_pri + U_max) expected per Insert/Erase,
// with each element living in O(1) sampled max structures in
// expectation. Dynamic instantiation: treap PST + augmented-treap range
// max. Expected shape: per-update cost grows ~logarithmically in n;
// interleaved queries stay exact (covered by tests) and fast.

#include <cstddef>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/random.h"
#include "core/sampled_topk.h"
#include "range1d/dyn_pst.h"
#include "range1d/dyn_range_max.h"
#include "range1d/point1d.h"

namespace topk {
namespace {

using range1d::DynamicPst;
using range1d::DynamicRangeMax;
using range1d::Point1D;
using range1d::Range1D;
using range1d::Range1DProblem;

using DynTopK = SampledTopK<Range1DProblem, DynamicPst, DynamicRangeMax>;

void BM_InsertErase(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  DynTopK topk(bench::Points1D(n, 3));
  Rng rng(17);
  uint64_t next_id = 10'000'000;
  for (auto _ : state) {
    Point1D p{rng.NextDouble(), rng.NextDouble() * 1e6, next_id++};
    topk.Insert(p);
    topk.Erase(p);  // keep n stable; one iteration = 1 insert + 1 erase
  }
  state.counters["n"] = static_cast<double>(n);
}

void BM_QueryAfterChurn(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const DynTopK& topk =
      bench::Cached<DynTopK>(n, 5, [](size_t m, uint64_t seed) {
        DynTopK s(bench::Points1D(m / 2, seed));
        Rng rng(seed + 1);
        for (uint64_t i = 0; i < m / 2; ++i) {
          s.Insert({rng.NextDouble(), rng.NextDouble() * 1e6,
                    1'000'000 + i});
        }
        return s;
      });
  bench::WarmQuery<DynTopK> query(topk);
  query(Range1D{0.0, 1.0}, 10);  // warms the arena, untimed
  Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(query(bench::UniformRange1D(&rng), 10).data());
  }
  state.counters["n"] = static_cast<double>(n);
}

BENCHMARK(BM_InsertErase)->RangeMultiplier(4)->Range(1 << 12, 1 << 18);
BENCHMARK(BM_QueryAfterChurn)->RangeMultiplier(4)->Range(1 << 12, 1 << 18);

}  // namespace
}  // namespace topk

BENCHMARK_MAIN();
