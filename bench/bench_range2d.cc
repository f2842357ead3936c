// E17 — top-k 2D orthogonal range reporting (the survey's flagship
// problem, Section 2 [28, 29]): both reductions over range trees plus
// the counting-based Section 2 reduction on the 1D specialization.

#include <cstddef>
#include <utility>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/random.h"
#include "core/core_set_topk.h"
#include "core/counting_topk.h"
#include "core/sampled_topk.h"
#include "core/scan_topk.h"
#include "range1d/count_tree.h"
#include "range1d/pst.h"
#include "range2d/point2d.h"
#include "range2d/range_tree.h"

namespace topk {
namespace {

using range2d::Range2DProblem;
using range2d::RangeTreeMax;
using range2d::RangeTreePrioritized;
using range2d::Rect2;
using range2d::WPoint2D;

constexpr size_t kK = 10;

std::vector<WPoint2D> Points(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<WPoint2D> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble() * 1e6,
              i + 1};
  }
  return out;
}

Rect2 Q(Rng* rng) {
  double x1 = rng->NextDouble(), x2 = rng->NextDouble();
  double y1 = rng->NextDouble(), y2 = rng->NextDouble();
  if (x1 > x2) std::swap(x1, x2);
  if (y1 > y2) std::swap(y1, y2);
  return {x1, x2, y1, y2};
}

void RegisterAll() {
  auto data = [](size_t m) { return Points(m, 5); };
  // The Section 2 counting reduction, on the 1D specialization
  // (counting structures are problem-specific; 1D has an exact one).
  using Counting = CountingTopK<range1d::Range1DProblem,
                                range1d::PrioritySearchTree,
                                range1d::CountTree>;
  auto data_1d = [](size_t m) { return bench::Points1D(m, 5); };
  for (size_t n : {size_t{1} << 12, size_t{1} << 14, size_t{1} << 16}) {
    bench::RegisterLazy<CoreSetTopK<Range2DProblem, RangeTreePrioritized>>(
        "Thm1", n, kK, data, Q);
    bench::RegisterLazy<
        SampledTopK<Range2DProblem, RangeTreePrioritized, RangeTreeMax>>(
        "Thm2", n, kK, data, Q);
    bench::RegisterLazy<ScanTopK<Range2DProblem>>("Scan", n, kK, data, Q);
    bench::RegisterLazy<Counting>("CountingReduction1D", n, kK, data_1d,
                                  bench::UniformRange1D);
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
