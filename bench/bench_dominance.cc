// E9 — Theorem 6, top-k 3D dominance (the hotel query): both reductions
// over the weight-augmented kd-tree vs scan.

#include <cstddef>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/random.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "core/scan_topk.h"
#include "dominance/point3.h"

namespace topk {
namespace {

using dominance::DominanceKdTree;
using dominance::DominanceProblem;
using dominance::Point3;

constexpr size_t kK = 10;

Point3 Q(Rng* rng) {
  return {0.3 + rng->NextDouble() * 0.7, 0.3 + rng->NextDouble() * 0.7,
          0.3 + rng->NextDouble() * 0.7, 0, 0};
}

void RegisterAll() {
  auto data = [](size_t m) { return bench::Points3D(m, 5); };
  for (size_t n : {size_t{1} << 12, size_t{1} << 14, size_t{1} << 16,
                   size_t{1} << 18}) {
    bench::RegisterLazy<CoreSetTopK<DominanceProblem, DominanceKdTree>>(
        "Thm1", n, kK, data, Q);
    bench::RegisterLazy<
        SampledTopK<DominanceProblem, DominanceKdTree, DominanceKdTree>>(
        "Thm2", n, kK, data, Q);
    bench::RegisterLazy<ScanTopK<DominanceProblem>>("Scan", n, kK, data, Q);
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
