// E12 — the external-memory model: exact page I/O counts through the
// BlockDevice as the block size B sweeps, for the EM prioritized
// structure (Section 5.5 style, Q_pri = O(sqrt(n/B) log_B n + t/B)),
// the EM max structure (O(log_B n)), and both reductions on top.
//
// Claims under test:
//   * the max structure's I/O count decays like log_B n as B grows;
//   * the top-k structures' I/O counts track the prioritized structure's
//     (Theorem 1's remark: Q_pri >= (n/B)^eps implies Q_top = O(Q_pri);
//     Theorem 2 promises Q_top = O(Q_pri + Q_max + k/B) outright);
//   * the naive scan pays n/B.
//
// This is a measurement table over a simulated device, not a timing run.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "core/sink.h"
#include "em/block_device.h"
#include "em/buffer_pool.h"
#include "em/em_range1d.h"
#include "range1d/point1d.h"

namespace topk {
namespace {

using em::BlockDevice;
using em::BufferPool;
using em::EmBPlusTree;
using em::EmRange1dPrioritized;
using range1d::Point1D;
using range1d::Range1D;
using range1d::Range1DProblem;

constexpr size_t kN = 1 << 17;
constexpr size_t kQueries = 60;

struct Row {
  double pri = 0, max = 0, thm1 = 0, thm1_ablated = 0, thm2 = 0, scan = 0;
};

Row Measure(size_t block_words) {
  const size_t page_size = block_words * 8;  // 8-byte words
  BlockDevice dev(page_size);
  // Small pool relative to data so I/Os are not hidden by residency:
  // M = 64 blocks.
  BufferPool pool(&dev, 64);
  std::vector<Point1D> data = bench::Points1D(kN, 3);

  auto pri_factory = [&pool](std::vector<Point1D> v) {
    return EmRange1dPrioritized(&pool, std::move(v));
  };
  auto max_factory = [&pool](std::vector<Point1D> v) {
    return EmBPlusTree(&pool, std::move(v));
  };

  EmRange1dPrioritized pri = pri_factory(data);
  EmBPlusTree max_struct = max_factory(data);
  ReductionOptions opts;
  opts.block_size = block_words;
  CoreSetTopK<Range1DProblem, EmRange1dPrioritized> thm1(data, opts,
                                                         pri_factory);
  // At laptop scale the paper constant f = 12*lambda*B*Q_pri exceeds n
  // when Q_pri is polynomial, degenerating Theorem 1's top-f path into
  // monitored full fetches; the ablated instance shows the shape the
  // asymptotics promise (see EXPERIMENTS.md).
  ReductionOptions ablated = opts;
  ablated.constant_scale = 0.02;
  CoreSetTopK<Range1DProblem, EmRange1dPrioritized> thm1_ablated(
      data, ablated, pri_factory);
  SampledTopK<Range1DProblem, EmRange1dPrioritized, EmBPlusTree,
              decltype(pri_factory), decltype(max_factory)>
      thm2(data, opts, pri_factory, max_factory);

  Row row;
  Rng rng(9);
  auto query = [&rng] { return bench::UniformRange1D(&rng); };
  auto reset = [&] {
    pool.FlushAll();
    dev.ResetCounters();
  };

  // Every query starts on a cold pool so per-query I/Os are not hidden
  // by residency. tau is set so a prioritized query reports ~1000
  // elements — comparable to the work the top-k structures do per
  // query (their monitored budgets are a few hundred to a thousand).
  const double tau = (1.0 - 1000.0 / static_cast<double>(kN)) * 1e6;
  uint64_t sum = 0;
  auto measure = [&](auto&& one_query) {
    sum = 0;
    for (size_t i = 0; i < kQueries; ++i) {
      reset();
      one_query();
      sum += dev.counters().total();
    }
    return static_cast<double>(sum) / kQueries;
  };

  row.pri = measure([&] {
    size_t sink = 0;
    IssuePrioritized(pri, query(), tau,
                     [&sink](const Point1D&) {
                       ++sink;
                       return true;
                     },
                     nullptr);
  });
  row.max = measure([&] { max_struct.QueryMax(query()); });
  // Untimed: E12 counts I/Os, which a per-query arena does not touch.
  row.thm1 = measure([&] { topk::Query(thm1, query(), 16); });
  row.thm1_ablated = measure([&] { topk::Query(thm1_ablated, query(), 16); });
  row.thm2 = measure([&] { topk::Query(thm2, query(), 16); });

  // Scan = read every leaf page once.
  row.scan = static_cast<double>(kN) /
             static_cast<double>(page_size / sizeof(Point1D));
  return row;
}

void Run() {
  std::printf(
      "E12: I/Os per query vs block size B (n=%zu, top-k with k=16,\n"
      "prioritized probed at tau admitting ~1000 elements; cold pool\n"
      "per query)\n",
      kN);
  std::printf("%8s %10s %10s %12s %14s %12s %10s\n", "B(words)", "pri",
              "max", "thm1-paper", "thm1-ablated", "thm2-topk", "scan");
  for (size_t b : {16u, 32u, 64u, 128u, 256u, 512u}) {
    const Row r = Measure(b);
    std::printf("%8zu %10.1f %10.1f %12.1f %14.1f %12.1f %10.1f\n", b,
                r.pri, r.max, r.thm1, r.thm1_ablated, r.thm2, r.scan);
  }
  std::printf(
      "\nExpected shape: every column shrinks as B grows; max ~ log_B n;\n"
      "pri ~ sqrt(n/B)*log_B n + t/B at t~1000. thm2 and the ablated\n"
      "thm1 stay within a small constant of pri (no reduction blow-up)\n"
      "and far below scan. thm1 at the PAPER constants degenerates here:\n"
      "f = 12*lambda*B*Q_pri(n) exceeds n for polynomial Q_pri at this\n"
      "scale, so its monitored probes fetch entire query results — the\n"
      "asymptotic regime of Theorem 1 starts far beyond laptop-size n.\n");
}

}  // namespace
}  // namespace topk

int main() {
  topk::Run();
  return 0;
}
