// E28 — federated serving: scatter-gather QPS/latency scaling over
// S hash shards at fixed n, the threshold-style early-terminating
// merge vs an exhaustive S*k gather, and the epoch-invalidated
// hot-query cache under Zipf traffic.
//
// Claims under test (hard TOPK_CHECKs — this binary exits nonzero on a
// regression, the bench smoke job treats that as failure):
//   * federated answers are bitwise-identical to one engine over the
//     union, at every shard count;
//   * the TA merge's sorted-access depth (Stats::elements_pulled) is
//     STRICTLY below the exhaustive S*k gather for S >= 2 (equal
//     shapes at S = 1), with the transfer counters cross-checked
//     against the shard engines' own results_returned tallies;
//   * a cache hit under Zipf traffic skips shard fan-out entirely
//     (shard_fetches unchanged) and allocates nothing.
//
// Plain-text tables + one metrics JSON line per configuration
// (consumed by tools/summarize_bench.py). Construction is never timed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "common/kselect.h"
#include "common/random.h"
#include "common/zipf.h"
#include "core/sampled_topk.h"
#include "federate/coordinator.h"
#include "federate/shard_map.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "serve/engine.h"
#include "serve/metrics.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TOPK_ALLOC_COUNTING_DISABLED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TOPK_ALLOC_COUNTING_DISABLED 1
#endif
#endif

#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

#ifndef TOPK_ALLOC_COUNTING_DISABLED
// Counting allocator (same shape as alloc_regression_test): any heap
// allocation in the process during a measured window ticks the count.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  std::abort();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // !TOPK_ALLOC_COUNTING_DISABLED

namespace topk {
namespace {

using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;
using range1d::RangeMax;

using Thm2 = SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax>;
using Coord = federate::Coordinator<Thm2>;

constexpr size_t kN = 1 << 15;
constexpr size_t kQueries = 256;
constexpr size_t kK = 64;
constexpr size_t kTimedReps = 3;

struct Work {
  Range1D range;
  size_t k;
};

std::vector<Work> MakeWorkload() {
  Rng rng(0x5e28);
  std::vector<Work> work;
  work.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    double lo = rng.NextDouble(), hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    work.push_back({{lo, hi}, kK});
  }
  return work;
}

// One federation (S static Thm2 shards + coordinator), with per-engine
// metrics so coordinator transfer counters can be cross-checked.
struct Federation {
  std::vector<Thm2> structures;
  std::vector<std::unique_ptr<serve::Metrics>> metrics;
  std::vector<std::unique_ptr<serve::QueryEngine<Thm2>>> engines;
  std::unique_ptr<Coord> coord;

  uint64_t EngineResultsReturned() const {
    uint64_t total = 0;
    for (const auto& m : metrics) {
      total += m->Snapshot().stats.results_returned;
    }
    return total;
  }
};

Federation MakeFederation(const std::vector<Point1D>& data,
                          size_t num_shards, const Coord::Options& options) {
  Federation f;
  auto parts = federate::PartitionById(data, num_shards);
  f.structures.reserve(num_shards);
  for (auto& p : parts) f.structures.emplace_back(std::move(p));
  std::vector<Coord::Shard> shards;
  for (size_t s = 0; s < num_shards; ++s) {
    f.metrics.push_back(std::make_unique<serve::Metrics>());
    f.engines.push_back(std::make_unique<serve::QueryEngine<Thm2>>(
        &f.structures[s], serve::QueryEngine<Thm2>::Options{},
        f.metrics.back().get()));
    shards.push_back({f.engines.back().get(), nullptr});
  }
  f.coord = std::make_unique<Coord>(std::move(shards), options);
  return f;
}

// Reference answers from one engine over the whole dataset, pinned to
// brute force on a sample.
std::vector<std::vector<uint64_t>> ReferenceAnswers(
    const std::vector<Point1D>& data, const std::vector<Work>& work) {
  const Thm2 whole(data);
  std::vector<std::vector<uint64_t>> reference;
  reference.reserve(work.size());
  for (const Work& w : work) {
    auto r = topk::Query(whole, w.range, w.k);
    std::vector<uint64_t> ids;
    ids.reserve(r.size());
    for (const auto& e : r) ids.push_back(e.id);
    reference.push_back(std::move(ids));
  }
  for (size_t i = 0; i < 32; ++i) {
    std::vector<Point1D> pool;
    for (const Point1D& p : data) {
      if (Range1DProblem::Matches(work[i].range, p)) pool.push_back(p);
    }
    SelectTopK(&pool, work[i].k);
    TOPK_CHECK(pool.size() == reference[i].size());
    for (size_t j = 0; j < pool.size(); ++j) {
      TOPK_CHECK(pool[j].id == reference[i][j]);
    }
  }
  return reference;
}

void CheckExact(const std::vector<Point1D>& out,
                const std::vector<uint64_t>& want) {
  TOPK_CHECK(out.size() == want.size());
  for (size_t j = 0; j < out.size(); ++j) {
    TOPK_CHECK(out[j].id == want[j]);
  }
}

void RunScaling(const std::vector<Point1D>& data,
                const std::vector<Work>& work,
                const std::vector<std::vector<uint64_t>>& reference) {
  std::printf(
      "\nScaling: %zu queries (k=%zu) through the coordinator, 1 -> S\n"
      "shards at fixed n (hardware_concurrency=%u — on a one-core\n"
      "container the fan-out barrier is pure overhead and speedup\n"
      "stays below 1; the per-shard work drop shows in pulled/q).\n"
      "Columns: sweep wall ms (best of %zu), queries/s, speedup vs 1\n"
      "shard, latency p50/p95/p99 us, TA elements pulled per query\n"
      "(exhaustive would pull ~S*k).\n",
      kQueries, kK, std::thread::hardware_concurrency(), kTimedReps);
  std::printf("%-8s %10s %10s %9s %9s %9s %9s %11s\n", "shards", "sweep_ms",
              "qps", "speedup", "p50_us", "p95_us", "p99_us", "pulled/q");
  double qps1 = 0.0;
  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    Federation f = MakeFederation(data, num_shards, {});
    std::vector<Point1D> out;
    // Warm-up sweep (engine pools, slot buffers, merge scratch).
    for (const Work& w : work) {
      f.coord->QueryInto(w.range, w.k, &out);
    }
    f.coord->ResetStats();
    double best_s = 1e30;
    for (size_t rep = 0; rep < kTimedReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < work.size(); ++i) {
        f.coord->QueryInto(work[i].range, work[i].k, &out);
        CheckExact(out, reference[i]);
      }
      const auto t1 = std::chrono::steady_clock::now();
      best_s = std::min(
          best_s, std::chrono::duration<double>(t1 - t0).count());
    }
    const double qps = static_cast<double>(kQueries) / best_s;
    if (num_shards == 1) qps1 = qps;
    const Coord::Stats& st = f.coord->stats();
    const serve::MetricsSnapshot& m = f.coord->metrics();
    std::printf("%-8zu %10.2f %10.0f %8.2fx %9.1f %9.1f %9.1f %11.1f\n",
                num_shards, best_s * 1e3, qps, qps / qps1,
                m.latency.PercentileNs(50.0) / 1e3,
                m.latency.PercentileNs(95.0) / 1e3,
                m.latency.PercentileNs(99.0) / 1e3,
                static_cast<double>(st.elements_pulled) /
                    static_cast<double>(st.queries));
    std::printf("metrics_json structure=federate shards=%zu threads=%zu %s\n",
                num_shards, num_shards, serve::ToJson(m).c_str());
  }
}

void RunEarlyTermination(const std::vector<Point1D>& data,
                         const std::vector<Work>& work,
                         const std::vector<std::vector<uint64_t>>& reference) {
  std::printf(
      "\nEarly termination vs exhaustive gather (identical answers\n"
      "TOPK_CHECKed per query). Columns: TA/exhaustive sorted-access\n"
      "depth (elements pulled), TA savings, shard round-trips.\n");
  std::printf("%-8s %12s %12s %9s %10s %10s\n", "shards", "ta_pulled",
              "ex_pulled", "savings", "ta_fetch", "ex_fetch");
  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    Federation ta = MakeFederation(data, num_shards, {});
    Federation ex = MakeFederation(data, num_shards, {.exhaustive = true});
    std::vector<Point1D> got_ta, got_ex;
    for (size_t i = 0; i < work.size(); ++i) {
      const auto sa = ta.coord->QueryInto(work[i].range, work[i].k, &got_ta);
      const auto sb = ex.coord->QueryInto(work[i].range, work[i].k, &got_ex);
      TOPK_CHECK(sa == serve::ResultStatus::kOk);
      TOPK_CHECK(sb == serve::ResultStatus::kOk);
      CheckExact(got_ta, reference[i]);
      CheckExact(got_ex, reference[i]);
    }
    const Coord::Stats& sta = ta.coord->stats();
    const Coord::Stats& sex = ex.coord->stats();
    // THE claim: early termination pulls strictly fewer elements than
    // the exhaustive S*k gather once k spans shards (equal at S=1,
    // where both ask the one shard for exactly k).
    if (num_shards == 1) {
      TOPK_CHECK(sta.elements_pulled == sex.elements_pulled);
    } else {
      TOPK_CHECK(sta.elements_pulled < sex.elements_pulled);
    }
    // Transfer counters must agree with the engines' own accounting.
    TOPK_CHECK(sta.elements_transferred == ta.EngineResultsReturned());
    TOPK_CHECK(sex.elements_transferred == ex.EngineResultsReturned());
    std::printf("%-8zu %12zu %12zu %8.1f%% %10zu %10zu\n", num_shards,
                static_cast<size_t>(sta.elements_pulled),
                static_cast<size_t>(sex.elements_pulled),
                100.0 *
                    (1.0 - static_cast<double>(sta.elements_pulled) /
                               static_cast<double>(sex.elements_pulled)),
                static_cast<size_t>(sta.shard_fetches),
                static_cast<size_t>(sex.shard_fetches));
  }
}

void RunZipfCache(const std::vector<Point1D>& data,
                  const std::vector<Work>& work,
                  const std::vector<std::vector<uint64_t>>& reference) {
  constexpr size_t kShards = 4;
  constexpr size_t kDraws = 4096;
  constexpr double kSkew = 1.1;
  Federation f =
      MakeFederation(data, kShards, {.cache_entries = 4096});
  ZipfDistribution zipf(work.size(), kSkew);
  Rng rng(0xcafe);

  // Warm every distinct query once (fills), then run the Zipf trace.
  std::vector<Point1D> out;
  for (size_t i = 0; i < work.size(); ++i) {
    f.coord->QueryInto(work[i].range, work[i].k, &out);
  }
  f.coord->ResetStats();
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t d = 0; d < kDraws; ++d) {
    const size_t i = zipf.Next(&rng);
    f.coord->QueryInto(work[i].range, work[i].k, &out);
    CheckExact(out, reference[i]);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const Coord::Stats& st = f.coord->stats();

  // A hot query must now be cached: the hit may not fan out (fetch
  // counter frozen) and may not allocate (counting operator new).
  const size_t hot = zipf.Next(&rng);
  f.coord->QueryInto(work[hot].range, work[hot].k, &out);  // ensure filled
  const uint64_t fetches_before = f.coord->stats().shard_fetches;
  const uint64_t hits_before = f.coord->stats().cache_hits;
  const uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  f.coord->QueryInto(work[hot].range, work[hot].k, &out);
  const uint64_t hit_allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  TOPK_CHECK(f.coord->stats().cache_hits == hits_before + 1);
  TOPK_CHECK(f.coord->stats().shard_fetches == fetches_before);
  CheckExact(out, reference[hot]);
#ifndef TOPK_ALLOC_COUNTING_DISABLED
  TOPK_CHECK(hit_allocs == 0);
#endif
  static_cast<void>(hit_allocs);

  std::printf(
      "\nZipf(s=%.1f) hot-query traffic over %zu distinct queries,\n"
      "%zu draws, S=%zu shards, %zu-entry cache. Cache hits serve\n"
      "without fan-out at 0 allocs (TOPK_CHECKed).\n",
      kSkew, work.size(), kDraws, kShards, size_t{4096});
  std::printf("%-12s %10s %10s %12s %12s\n", "qps", "hit_rate",
              "hits", "misses", "invalidated");
  std::printf("%-12.0f %9.1f%% %10zu %12zu %12zu\n",
              static_cast<double>(kDraws) / secs,
              100.0 * static_cast<double>(st.cache_hits) /
                  static_cast<double>(st.cache_hits + st.cache_misses),
              static_cast<size_t>(st.cache_hits),
              static_cast<size_t>(st.cache_misses),
              static_cast<size_t>(st.cache_invalidations));
  std::printf("metrics_json structure=federate_zipf shards=%zu threads=%zu %s\n",
              kShards, kShards, serve::ToJson(f.coord->metrics()).c_str());
}

void Run() {
  std::printf(
      "E28: federated scatter-gather over S hash shards (n=%zu,\n"
      "Theorem 2 shards, %zu-query workload, k=%zu). Sections: QPS\n"
      "scaling 1->S, TA early termination vs exhaustive gather, Zipf\n"
      "cache traffic. All answers TOPK_CHECKed bitwise against one\n"
      "engine over the union.\n",
      kN, kQueries, kK);
  const std::vector<Point1D> data = bench::Points1D(kN, 28);
  const std::vector<Work> work = MakeWorkload();
  const auto reference = ReferenceAnswers(data, work);
  RunScaling(data, work, reference);
  RunEarlyTermination(data, work, reference);
  RunZipfCache(data, work, reference);
}

}  // namespace
}  // namespace topk

int main() {
  topk::Run();
  return 0;
}
