// E11 — Corollary 1, top-k circular range reporting: both reductions
// over the kd-tree (the disk predicate is the lifted halfspace
// restricted to the paraboloid) vs scan.

#include <cstddef>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "circle/circular.h"
#include "common/random.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "core/scan_topk.h"

namespace topk {
namespace {

using circle::CircularKdTree;
using circle::CircularProblem;
using circle::Disk;

constexpr size_t kK = 10;

Disk Q(Rng* rng) {
  return {rng->NextDouble(), rng->NextDouble(),
          0.05 + rng->NextDouble() * 0.4};
}

void RegisterAll() {
  auto data = [](size_t m) { return bench::Points2D(m, 5); };
  for (size_t n : {size_t{1} << 12, size_t{1} << 14, size_t{1} << 16,
                   size_t{1} << 18}) {
    bench::RegisterLazy<CoreSetTopK<CircularProblem, CircularKdTree>>(
        "Thm1", n, kK, data, Q);
    bench::RegisterLazy<
        SampledTopK<CircularProblem, CircularKdTree, CircularKdTree>>(
        "Thm2", n, kK, data, Q);
    bench::RegisterLazy<ScanTopK<CircularProblem>>("Scan", n, kK, data, Q);
  }
}

}  // namespace
}  // namespace topk

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  topk::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
