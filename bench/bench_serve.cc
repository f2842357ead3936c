// E21 — the serving layer: batch throughput vs thread count for the
// Theorem 1 reduction, the binary-search baseline, and the hand-built
// direct top-k on 1D range reporting.
//
// Claims under test:
//   * QueryEngine results are exactly the single-threaded answers
//     (validated against brute force) at every thread count;
//   * batch throughput does not degrade as workers are added, and
//     scales with them when the machine has cores to give (this
//     container is often pinned to ONE core — the printed cpus value
//     says how much hardware parallelism was actually available);
//   * the per-query latency histogram (p50/p95/p99) matches the
//     single-query costs measured in E1/E2.
//
// Plain-text table + one metrics JSON line per engine configuration
// (consumed by tools/summarize_bench.py). Construction is never timed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/kselect.h"
#include "common/random.h"
#include "core/binary_search_topk.h"
#include "core/core_set_topk.h"
#include "range1d/direct_topk.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "serve/engine.h"
#include "serve/metrics.h"

namespace topk {
namespace {

using range1d::HeapSelectTopK;
using range1d::Point1D;
using range1d::Range1D;
using range1d::Range1DProblem;
using range1d::PrioritySearchTree;

constexpr size_t kN = 1 << 17;
constexpr size_t kBatch = 512;
constexpr size_t kTimedReps = 3;

struct Work {
  Range1D range;
  size_t k;
};

std::vector<Work> MakeWorkload() {
  Rng rng(0x5e21);
  std::vector<Work> work;
  work.reserve(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    double lo = rng.NextDouble(), hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    // Serving mix: mostly small k, every 16th request deep.
    work.push_back({{lo, hi}, (i % 16 == 0) ? size_t{1024} : size_t{16}});
  }
  return work;
}

template <typename S>
void RunStructure(const char* name, const S& structure,
                  const std::vector<Work>& work,
                  const std::vector<Point1D>& data) {
  using Engine = serve::QueryEngine<S>;
  std::vector<serve::Request<Range1D>> requests;
  requests.reserve(work.size());
  for (const Work& w : work) requests.push_back({w.range, w.k});

  // Single-threaded reference answers (and a brute-force spot check).
  std::vector<std::vector<uint64_t>> reference;
  reference.reserve(requests.size());
  for (const Work& w : work) {
    auto r = topk::Query(structure, w.range, w.k);
    std::vector<uint64_t> ids;
    ids.reserve(r.size());
    for (const auto& e : r) ids.push_back(e.id);
    reference.push_back(std::move(ids));
  }
  bool exact = true;
  for (size_t i = 0; i < 32 && i < work.size(); ++i) {
    auto want = [&] {
      std::vector<Point1D> pool;
      for (const Point1D& p : data) {
        if (Range1DProblem::Matches(work[i].range, p)) pool.push_back(p);
      }
      SelectTopK(&pool, work[i].k);
      return pool;
    }();
    if (want.size() != reference[i].size()) exact = false;
    for (size_t j = 0; exact && j < want.size(); ++j) {
      if (want[j].id != reference[i][j]) exact = false;
    }
  }

  double qps1 = 0.0;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    serve::Metrics metrics;
    Engine engine(&structure, {.num_threads = threads}, &metrics);

    engine.QueryBatch(requests);  // warm-up (pool spin-up, first faults)
    double best_s = 1e30;
    for (size_t rep = 0; rep < kTimedReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      auto results = engine.QueryBatch(requests);
      const auto t1 = std::chrono::steady_clock::now();
      best_s = std::min(best_s, std::chrono::duration<double>(t1 - t0)
                                    .count());
      for (size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok()) exact = false;
        const auto& elems = results[i].elements;
        if (elems.size() != reference[i].size()) exact = false;
        for (size_t j = 0; exact && j < elems.size(); ++j) {
          if (elems[j].id != reference[i][j]) exact = false;
        }
      }
    }
    const double qps = static_cast<double>(kBatch) / best_s;
    if (threads == 1) qps1 = qps;
    const serve::MetricsSnapshot m = metrics.Snapshot();
    std::printf(
        "%-10s %7zu %10.2f %10.0f %8.2fx %9.1f %9.1f %9.1f %9.1f %6s\n",
        name, threads, best_s * 1e3, qps, qps / qps1,
        m.latency.PercentileNs(50.0) / 1e3,
        m.latency.PercentileNs(95.0) / 1e3,
        m.latency.PercentileNs(99.0) / 1e3,
        static_cast<double>(m.latency.max_ns()) / 1e3,
        exact ? "ok" : "FAIL");
    std::printf("metrics_json structure=%s threads=%zu %s\n", name,
                threads, serve::ToJson(m).c_str());
    if (!exact) std::exit(1);
  }
}

void Run() {
  std::printf(
      "E21: batch throughput vs threads (n=%zu, batch=%zu requests,\n"
      "k=16 with every 16th k=1024; hardware_concurrency=%u).\n"
      "Columns: batch wall ms (best of %zu), queries/s, speedup vs 1\n"
      "thread, latency p50/p95/p99/max us (all runs), exactness.\n",
      kN, kBatch, std::thread::hardware_concurrency(), kTimedReps);
  std::printf("%-10s %7s %10s %10s %9s %9s %9s %9s %9s %6s\n", "structure",
              "threads", "batch_ms", "qps", "speedup", "p50_us", "p95_us",
              "p99_us", "max_us", "exact");

  const std::vector<Point1D> data = bench::Points1D(kN, 21);
  const std::vector<Work> work = MakeWorkload();

  const CoreSetTopK<Range1DProblem, PrioritySearchTree> thm1(data);
  const BinarySearchTopK<Range1DProblem, PrioritySearchTree> baseline(data);
  const HeapSelectTopK direct(data);

  RunStructure("thm1", thm1, work, data);
  RunStructure("baseline", baseline, work, data);
  RunStructure("direct", direct, work, data);
}

}  // namespace
}  // namespace topk

int main() {
  topk::Run();
  return 0;
}
