// E13 — Theorem 2's round protocol: the number of rounds a query
// executes is O(1) in expectation with a geometric tail (each round
// fails with probability <= 0.91 by Lemma 3; empirically far less).
// Second table: how much a query's work depends on the structure seed
// (every query shares one set of samples).

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/sampled_topk.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"

namespace topk {
namespace {

using range1d::PrioritySearchTree;
using range1d::Range1DProblem;
using range1d::RangeMax;

void Run() {
  std::printf("E13: Theorem 2 rounds per query (n=2^18, 3000 queries/k)\n");
  const size_t n = 1 << 18;
  using Thm2 = SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax>;
  Thm2 s(bench::Points1D(n, 21));
  std::printf("%8s %10s %10s %22s\n", "k", "mean", "max",
              "histogram 1/2/3/4/5+");
  for (size_t k : {size_t{1}, size_t{64}, size_t{1024}, size_t{16384}}) {
    Rng rng(5);
    std::vector<uint64_t> histogram(6, 0);
    uint64_t total = 0, max_rounds = 0, queries = 0;
    for (int t = 0; t < 3000; ++t) {
      QueryStats stats;
      // Untimed: E13 reports rounds, not time.
      topk::Query(s, bench::UniformRange1D(&rng), k, &stats);
      const uint64_t r = stats.rounds;
      total += r;
      max_rounds = std::max(max_rounds, r);
      histogram[std::min<uint64_t>(r, 5)]++;
      ++queries;
    }
    std::printf("%8zu %10.3f %10llu      %llu/%llu/%llu/%llu/%llu\n", k,
                static_cast<double>(total) / static_cast<double>(queries),
                static_cast<unsigned long long>(max_rounds),
                static_cast<unsigned long long>(histogram[1]),
                static_cast<unsigned long long>(histogram[2]),
                static_cast<unsigned long long>(histogram[3]),
                static_cast<unsigned long long>(histogram[4]),
                static_cast<unsigned long long>(histogram[5]));
  }
  std::printf(
      "\nExpected shape: O(1) mean with a geometric tail. A round\n"
      "succeeds when the sampled max lands in the (K_j, 4K_j] rank\n"
      "window: probability (1-1/K)^K - (1-1/K)^{4K} ~ e^-1 - e^-4 ~\n"
      "0.35 (the paper's stated lower bound is 0.09), so the mean is\n"
      "~1/0.35 ~ 3 and the tail decays like 0.65^j. Rounds of 0 mean\n"
      "the query bypassed the ladder (k >= n/4 scans).\n");
}

// Emitted and rounds per query over 32 structure seeds: one dataset and
// one set of 1000 uniform ranges, rebuilt per seed (untimed counts).
void SeedSpread(size_t log_n, size_t k) {
  using Thm2 = SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax>;
  const auto data = bench::Points1D(size_t{1} << log_n, 22);
  const auto ranges = bench::UniformRanges1D(1000, 23);
  const double queries = static_cast<double>(ranges.size());
  std::vector<double> emitted, rounds;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    const Thm2 s(data, {.seed = seed});
    QueryStats stats;
    for (const auto& q : ranges) topk::Query(s, q, k, &stats);
    emitted.push_back(static_cast<double>(stats.elements_emitted) / queries);
    rounds.push_back(static_cast<double>(stats.rounds) / queries);
  }
  for (auto [name, xs] : {std::pair{"emitted/q", &emitted},
                          std::pair{"rounds/q", &rounds}}) {
    std::vector<double>& v = *xs;
    std::sort(v.begin(), v.end());
    double mean = 0.0;
    for (double x : v) mean += x / static_cast<double>(v.size());
    // q1 and q3 are the 9th and 25th of the 32 sorted values.
    std::printf("2^%-4zu %6zu %10s %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f "
                "%6.2f\n",
                log_n, k, name, mean, (v[15] + v[16]) / 2.0, v[8], v[24],
                v.front(), v.back(), v.back() / v.front());
  }
}

}  // namespace
}  // namespace topk

int main() {
  topk::Run();
  std::printf(
      "\nE13b: structure-seed spread (32 seeds, 1000 uniform ranges)\n"
      "%-6s %6s %10s %9s %9s %9s %9s %9s %9s %6s\n",
      "n", "k", "metric", "mean", "median", "q1", "q3", "min", "max",
      "max/min");
  topk::SeedSpread(15, 64);
  topk::SeedSpread(14, 16);
  return 0;
}
