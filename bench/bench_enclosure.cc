// E8 — Theorem 5, top-k 2D point enclosure (the dating-site query):
// both reductions over the two-level segment-tree structures vs scan.
//
// Expected shape: reductions polylogarithmic (Theorem 2 tracking the
// O(log^2-ish) stabbing structures), scan linear in n.

#include <cstddef>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/random.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "core/scan_topk.h"
#include "enclosure/enclosure_structures.h"
#include "enclosure/rect.h"

namespace topk {
namespace {

using enclosure::EnclosureMax;
using enclosure::EnclosurePrioritized;
using enclosure::EnclosureProblem;
using enclosure::Point2;

constexpr size_t kK = 10;

Point2 Q(Rng* rng) { return {rng->NextDouble(), rng->NextDouble()}; }

void RegisterAll() {
  auto data = [](size_t m) { return bench::Rects(m, 5); };
  for (size_t n : {size_t{1} << 12, size_t{1} << 14, size_t{1} << 16}) {
    bench::RegisterLazy<CoreSetTopK<EnclosureProblem, EnclosurePrioritized>>(
        "Thm1", n, kK, data, Q);
    bench::RegisterLazy<
        SampledTopK<EnclosureProblem, EnclosurePrioritized, EnclosureMax>>(
        "Thm2", n, kK, data, Q);
    bench::RegisterLazy<ScanTopK<EnclosureProblem>>("Scan", n, kK, data, Q);
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
