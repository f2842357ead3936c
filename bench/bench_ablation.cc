// E15 — ablation of the paper's worst-case constants. Theorem 1 sets
// f = 12*lambda*B*Q_pri(n) and the Lemma 2 pivot rank to
// ceil(8*lambda*ln n); these guarantee the w.h.p. analysis but are
// conservative on realistic inputs. constant_scale multiplies both.
//
// Measured: query latency, fallback rate, and structure shape as the
// scale shrinks. Expected: latency improves substantially below scale
// 1.0 (smaller f => smaller monitored budgets) until fallbacks start to
// dominate; answers stay exact at every scale (verified fallback).

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/core_set_topk.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"

namespace topk {
namespace {

using range1d::PrioritySearchTree;
using range1d::Range1DProblem;

// Keep the result alive without google-benchmark.
template <typename T>
void benchmark_keep(T&& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

void Run() {
  std::printf(
      "E15: Theorem 1 constant ablation (1D range, n=2^18, k=16,\n"
      "4000 queries per row)\n");
  std::printf("%8s %10s %8s %10s %12s %14s\n", "scale", "f", "levels",
              "coresets", "fallback%", "us/query");
  const size_t n = 1 << 18;
  std::vector<range1d::Point1D> data = bench::Points1D(n, 5);
  for (double scale : {1.0, 0.5, 0.2, 0.1, 0.05, 0.02}) {
    ReductionOptions opts;
    opts.constant_scale = scale;
    CoreSetTopK<Range1DProblem, PrioritySearchTree> s(data, opts);
    Rng rng(6);
    QueryStats stats;
    const int trials = 4000;
    const auto start = std::chrono::steady_clock::now();
    for (int t = 0; t < trials; ++t) {
      double a = rng.NextDouble(), b = rng.NextDouble();
      if (a > b) std::swap(a, b);
      benchmark_keep(topk::Query(s, {a, b}, 16, &stats));
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double us =
        std::chrono::duration<double, std::micro>(elapsed).count() /
        trials;
    std::printf("%8.2f %10zu %8zu %10zu %11.2f%% %14.2f\n", scale, s.f(),
                s.num_chain_levels(), s.num_large_k_core_sets(),
                100.0 * static_cast<double>(stats.fallbacks) / trials, us);
  }
  std::printf(
      "\nExpected shape: microseconds/query drop as scale shrinks (f\n"
      "controls every monitored budget) until the fallback rate grows\n"
      "enough to pay the O(log n)-probe baseline on unlucky queries.\n");
}

}  // namespace
}  // namespace topk

int main() {
  topk::Run();
  return 0;
}
