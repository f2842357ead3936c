// E23 — tracing overhead: the same query sweep with tracing disabled
// (tracer == nullptr, the production default) and enabled (a
// preallocated Tracer drained between queries), for both reductions.
//
// Claims under test:
//   * the disabled path costs one predicted-not-taken branch per
//     instrumentation point — indistinguishable from the pre-trace
//     query cost (the `off` column below; perfbench's
//     trace.*_overhead metrics price tracing end to end under
//     --trace 1);
//   * the enabled path's cost is proportional to events recorded, not
//     to query work — cheap spans (Theorem 2's handful of rounds) cost
//     little even when the query itself is expensive.
//
// Plain-text table (consumed verbatim by tools/summarize_bench.py).
// Construction is never timed.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/check.h"
#include "common/stats.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "trace/tracer.h"

namespace topk {
namespace {

using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;
using range1d::RangeMax;

constexpr size_t kQueries = 2000;
constexpr int kReps = 3;  // best-of to shed scheduler noise

// One timed sweep through a warm arena; returns mean ns/query. When
// `tracer` is non-null it is drained (Clear) after every query, as a
// real exporter would, so the enabled figure includes the full
// record-and-drain cycle; `events` and `dropped` accumulate across the
// sweep.
template <typename S>
double Sweep(bench::WarmQuery<S>* query, const std::vector<Range1D>& qs,
             size_t k, trace::Tracer* tracer, uint64_t* events,
             uint64_t* dropped) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const Range1D& q : qs) {
    QueryStats stats;
    benchmark::DoNotOptimize((*query)(q, k, &stats, tracer).data());
    if (tracer != nullptr) {
      *events += tracer->events().size();
      *dropped += tracer->dropped();
      tracer->Clear();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(qs.size());
}

template <typename S>
void Measure(const char* name, const S& s, size_t k) {
  const std::vector<Range1D> qs = bench::UniformRanges1D(kQueries, 17 + k);
  trace::Tracer tracer(size_t{1} << 12);  // ample: no query drops
  bench::WarmQuery<S> query(s);
  query(Range1D{0.0, 1.0}, k);  // warms the arena, untimed
  double off_ns = 1e300, on_ns = 1e300;
  uint64_t events = 0, dropped = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    off_ns =
        std::min(off_ns, Sweep(&query, qs, k, nullptr, &events, &dropped));
    events = dropped = 0;
    on_ns = std::min(on_ns, Sweep(&query, qs, k, &tracer, &events, &dropped));
  }
  TOPK_CHECK_EQ(dropped, 0u);
  std::printf("%8s %6zu %12.1f %12.1f %+9.1f%% %10.1f\n", name, k, off_ns,
              on_ns, 100.0 * (on_ns - off_ns) / off_ns,
              static_cast<double>(events) / static_cast<double>(kQueries));
}

void Run() {
  const size_t n = 1 << 16;
  std::printf(
      "E23: tracing overhead, disabled (tracer=nullptr) vs enabled\n"
      "(n=2^16, %zu queries/row, best of %d sweeps; enabled drains the\n"
      "tracer after every query)\n",
      kQueries, kReps);
  std::printf("%8s %6s %12s %12s %10s %10s\n", "struct", "k", "off ns/q",
              "on ns/q", "overhead", "events/q");

  using Thm1 = CoreSetTopK<Range1DProblem, PrioritySearchTree>;
  using Thm2 = SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax>;
  const Thm1 thm1(bench::Points1D(n, 23));
  const Thm2 thm2(bench::Points1D(n, 23));
  for (size_t k : {size_t{16}, size_t{256}}) {
    Measure("thm1", thm1, k);
    Measure("thm2", thm2, k);
  }
  std::printf(
      "\nExpected shape: 'off' within noise of the pre-trace baseline\n"
      "(E1/E2); 'on' overhead tracks events/q at roughly 100-300 ns per\n"
      "recorded span, dominated by the two steady_clock reads.\n");
}

}  // namespace
}  // namespace topk

int main() {
  topk::Run();
  return 0;
}
