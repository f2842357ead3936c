// E7 — Theorem 4, top-k interval stabbing: both reductions over both
// prioritized substrates (segment tree O(n log n) space / interval tree
// O(n) space) versus the naive scan, across n.
//
// Expected shape: both reductions polylogarithmic in n (the Theorem 2
// variant tracking the bare stabbing structures), scan linear; the two
// substrates differ by constants only.

#include <cstddef>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/random.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "core/scan_topk.h"
#include "interval/interval.h"
#include "interval/interval_tree_stab.h"
#include "interval/seg_stab.h"
#include "interval/stab_max.h"

namespace topk {
namespace {

using interval::IntervalTreeStab;
using interval::SegmentStabbing;
using interval::SlabStabMax;
using interval::StabProblem;

constexpr size_t kK = 10;

void RegisterAll() {
  auto data = [](size_t m) { return bench::Intervals(m, 5); };
  auto stab = [](Rng* rng) { return rng->NextDouble(); };
  for (size_t n : {size_t{1} << 12, size_t{1} << 14, size_t{1} << 16,
                   size_t{1} << 18}) {
    bench::RegisterLazy<CoreSetTopK<StabProblem, SegmentStabbing>>(
        "Thm1_SegTree", n, kK, data, stab);
    bench::RegisterLazy<CoreSetTopK<StabProblem, IntervalTreeStab>>(
        "Thm1_IntervalTree", n, kK, data, stab);
    bench::RegisterLazy<
        SampledTopK<StabProblem, SegmentStabbing, SlabStabMax>>(
        "Thm2_SegTree", n, kK, data, stab);
    bench::RegisterLazy<ScanTopK<StabProblem>>("Scan", n, kK, data, stab);
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
