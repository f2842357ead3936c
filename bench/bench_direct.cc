// E18 — the price of generality: the problem-specific heap-selection
// top-k (lazy heap selection over the PST, O(log n + k log(k + log n)),
// no randomness) versus the paper's two general reductions and the [28]
// baseline, on 1D range reporting.
//
// Expected shape: the direct structure wins outright (it exploits the
// heap order the reductions treat as a black box); Theorem 2 is the
// closest general structure; the gap quantifies what the black-box
// abstraction costs on this problem.

#include <cstddef>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/binary_search_topk.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "range1d/direct_topk.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"

namespace topk {
namespace {

using range1d::HeapSelectTopK;
using range1d::PrioritySearchTree;
using range1d::Range1DProblem;
using range1d::RangeMax;

constexpr size_t kK = 16;

void RegisterAll() {
  auto data = [](size_t m) { return bench::Points1D(m, 5); };
  for (size_t n : {size_t{1} << 14, size_t{1} << 17, size_t{1} << 20}) {
    bench::RegisterLazy<HeapSelectTopK>("Direct_HeapSelect", n, kK, data,
                                        bench::UniformRange1D);
    bench::RegisterLazy<
        SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax>>(
        "Thm2", n, kK, data, bench::UniformRange1D);
    bench::RegisterLazy<CoreSetTopK<Range1DProblem, PrioritySearchTree>>(
        "Thm1", n, kK, data, bench::UniformRange1D);
    bench::RegisterLazy<BinarySearchTopK<Range1DProblem, PrioritySearchTree>>(
        "Baseline28", n, kK, data, bench::UniformRange1D);
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
