// E20 — query-selectivity sensitivity: who wins as |q(D)| sweeps from
// needle-sized to the whole domain (fixed n, fixed k).
//
// The per-problem experiments (E7–E11) showed the winners flip with the
// typical |q(D)| of the workload; this experiment isolates that knob.
// Expected: every structure except the scan is flat or mildly growing
// in |q(D)| (their costs depend on k and the structure term, not t);
// Theorem 1's monitored budgets make it insensitive too, just at a
// higher floor; the scan is flat at O(n).

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "core/binary_search_topk.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "core/scan_topk.h"
#include "range1d/direct_topk.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"

namespace topk {
namespace {

using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;
using range1d::RangeMax;

constexpr size_t kN = 1 << 18;
constexpr size_t kK = 16;
constexpr int kQueries = 300;

// Timed on a warm arena: one untimed query first, then kQueries.
template <typename S>
double MicrosPerQuery(const S& s, double width, Rng* rng) {
  bench::WarmQuery<S> query(s);
  query(Range1D{0.0, width}, kK);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kQueries; ++i) {
    const double a = rng->NextDouble() * (1.0 - width);
    const auto& r = query(Range1D{a, a + width}, kK);
    asm volatile("" : : "g"(&r) : "memory");
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::micro>(elapsed).count() /
         kQueries;
}

void Run() {
  std::printf(
      "E20: us/query vs selectivity (n=2^18, k=16, 300 queries/cell,\n"
      "warm arena)\n");
  std::vector<Point1D> data = bench::Points1D(kN, 13);
  CoreSetTopK<Range1DProblem, PrioritySearchTree> thm1(data);
  SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax> thm2(data);
  BinarySearchTopK<Range1DProblem, PrioritySearchTree> baseline(data);
  range1d::HeapSelectTopK direct(data);
  ScanTopK<Range1DProblem> scan(data);

  std::printf("%12s %12s %10s %10s %10s %10s %10s\n", "width",
              "~|q(D)|", "direct", "base[28]", "thm2", "thm1", "scan");
  for (double width : {1e-4, 1e-3, 1e-2, 1e-1, 0.5, 1.0}) {
    Rng rng(17);
    const double d = MicrosPerQuery(direct, width, &rng);
    const double b = MicrosPerQuery(baseline, width, &rng);
    const double t2 = MicrosPerQuery(thm2, width, &rng);
    const double t1 = MicrosPerQuery(thm1, width, &rng);
    const double sc = width <= 1e-2  // the scan is flat; sample sparsely
                          ? MicrosPerQuery(scan, width, &rng)
                          : -1;
    std::printf("%12.0e %12.0f %10.2f %10.2f %10.2f %10.2f ", width,
                width * kN, d, b, t2, t1);
    if (sc >= 0) {
      std::printf("%10.2f\n", sc);
    } else {
      std::printf("%10s\n", "(flat)");
    }
  }
}

}  // namespace
}  // namespace topk

int main() {
  topk::Run();
  return 0;
}
