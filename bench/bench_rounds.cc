// E13 — Theorem 2's round protocol: the number of rounds a query
// executes is O(1) in expectation with a geometric tail (each round
// fails with probability <= 0.91 by Lemma 3; empirically far less).

#include <cstdio>
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

}  // namespace
}  // namespace topk

int main() {
  topk::Run();
  return 0;
}
