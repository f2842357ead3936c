// E16 — fractional cascading ablation: the paper's Section 5.2 claim
// that cascading drops the 2D stabbing-max query from O(log^2 n) (a
// predecessor search at every x-path node) to O(log n) (one search at
// the root, O(1) per node after).

#include <cstddef>
#include <cstdint>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/random.h"
#include "enclosure/enclosure_max_fc.h"
#include "enclosure/enclosure_structures.h"
#include "enclosure/rect.h"

namespace topk {
namespace {

using enclosure::EnclosureMax;
using enclosure::EnclosureMaxCascading;
using enclosure::Point2;

Point2 Q(Rng* rng) { return {rng->NextDouble(), rng->NextDouble()}; }

// Times QueryMax over S, built once on n seed-5 rectangles.
template <typename S>
void TimeQueryMax(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const S& s = bench::Cached<S>(n, 5, [](size_t m, uint64_t seed) {
    return S(bench::Rects(m, seed));
  });
  Rng rng(0xbe7c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.QueryMax(Q(&rng)));
  }
  state.counters["n"] = static_cast<double>(n);
}

void PlainLog2(benchmark::State& state) { TimeQueryMax<EnclosureMax>(state); }

void CascadedLog(benchmark::State& state) {
  TimeQueryMax<EnclosureMaxCascading>(state);
}

BENCHMARK(PlainLog2)->RangeMultiplier(4)->Range(1 << 10, 1 << 14);
BENCHMARK(CascadedLog)->RangeMultiplier(4)->Range(1 << 10, 1 << 14);

}  // namespace
}  // namespace topk

BENCHMARK_MAIN();
