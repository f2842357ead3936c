// E10 — Theorem 3 (d = 2), top-k halfplane reporting: both reductions
// over the convex-layer weight trees vs scan.

#include <cmath>
#include <cstddef>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/random.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "core/scan_topk.h"
#include "halfspace/halfspace_structures.h"
#include "halfspace/point2.h"

namespace topk {
namespace {

using halfspace::Halfplane;
using halfspace::HalfplaneProblem;
using halfspace::HalfspaceMax;
using halfspace::HalfspacePrioritized;

constexpr size_t kK = 10;

Halfplane Q(Rng* rng) {
  const double a = rng->NextDouble() * 2 * 3.14159265358979;
  return {std::cos(a), std::sin(a), rng->NextDouble() * 2 - 1};
}

void RegisterAll() {
  auto data = [](size_t m) { return bench::PointsHs(m, 5); };
  for (size_t n : {size_t{1} << 13, size_t{1} << 15, size_t{1} << 17}) {
    bench::RegisterLazy<CoreSetTopK<HalfplaneProblem, HalfspacePrioritized>>(
        "Thm1", n, kK, data, Q);
    bench::RegisterLazy<
        SampledTopK<HalfplaneProblem, HalfspacePrioritized, HalfspaceMax>>(
        "Thm2", n, kK, data, Q);
    bench::RegisterLazy<ScanTopK<HalfplaneProblem>>("Scan", n, kK, data, Q);
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
