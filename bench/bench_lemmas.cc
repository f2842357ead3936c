// E6 — the probabilistic machinery, measured:
//   * Lemma 1: empirical probability that the rank-ceil(2kp) sample
//     element has ground rank in [k, 4k] (claimed >= 1 - delta).
//   * Lemma 3: empirical probability that a (1/K)-sample's max has
//     ground rank in (K, 4K] (claimed >= 0.09).
//   * Theorem 1 in practice: fallback frequency of CoreSetTopK at the
//     paper constants (expected ~0) and under aggressive ablation.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/weighted.h"
#include "core/core_set_topk.h"
#include "core/rank_sampling.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"

namespace topk {
namespace {

using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;

size_t GroundRank(const std::vector<Point1D>& sorted_desc,
                  const Point1D& e) {
  for (size_t i = 0; i < sorted_desc.size(); ++i) {
    if (sorted_desc[i].id == e.id) return i + 1;
  }
  return 0;
}

void Lemma1Table() {
  std::printf("E6a: Lemma 1 empirical success rate (n=20000, 2000 trials)\n");
  std::printf("%8s %10s %10s %12s %12s\n", "k", "delta", "p", "claimed>=",
              "measured");
  Rng rng(1);
  const size_t n = 20000;
  std::vector<Point1D> data = bench::Points1D(n, 11);
  std::vector<Point1D> sorted = data;
  std::sort(sorted.begin(), sorted.end(), ByWeightDesc());
  for (double delta : {0.5, 0.2, 0.05}) {
    for (size_t k : {size_t{100}, size_t{1000}}) {
      const double p = 3.0 * std::log(3.0 / delta) / static_cast<double>(k);
      int success = 0;
      const int trials = 2000;
      for (int t = 0; t < trials; ++t) {
        std::vector<Point1D> sample = PSample(data, p, &rng);
        const size_t r = Lemma1SampleRank(k, p);
        if (static_cast<double>(sample.size()) <=
            2.0 * static_cast<double>(k) * p) {
          continue;
        }
        if (sample.size() < r) continue;
        std::nth_element(sample.begin(), sample.begin() + (r - 1),
                         sample.end(), ByWeightDesc());
        const size_t rank = GroundRank(sorted, sample[r - 1]);
        if (rank >= k && rank <= 4 * k) ++success;
      }
      std::printf("%8zu %10.2f %10.4f %12.2f %12.3f\n", k, delta, p,
                  1.0 - delta, static_cast<double>(success) / trials);
    }
  }
}

void Lemma3Table() {
  std::printf("\nE6b: Lemma 3 empirical success rate (n=20000, 4000 trials)\n");
  std::printf("%8s %12s %12s\n", "K", "claimed>=", "measured");
  Rng rng(2);
  const size_t n = 20000;
  std::vector<Point1D> data = bench::Points1D(n, 12);
  std::vector<Point1D> sorted = data;
  std::sort(sorted.begin(), sorted.end(), ByWeightDesc());
  for (double K : {16.0, 64.0, 256.0, 1024.0}) {
    int success = 0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
      std::vector<Point1D> sample = PSample(data, 1.0 / K, &rng);
      if (sample.empty()) continue;
      const Point1D* mx = &sample[0];
      for (const Point1D& e : sample) {
        if (HeavierThan(e, *mx)) mx = &e;
      }
      const size_t rank = GroundRank(sorted, *mx);
      if (static_cast<double>(rank) > K && static_cast<double>(rank) <= 4 * K) {
        ++success;
      }
    }
    std::printf("%8.0f %12.2f %12.3f\n", K, 0.09,
                static_cast<double>(success) / trials);
  }
}

void FallbackTable() {
  std::printf(
      "\nE6c: Theorem 1 fallback rate over 2000 queries (n=100000)\n");
  std::printf("%16s %10s %12s %12s\n", "constant_scale", "f",
              "fallbacks", "rate");
  std::vector<Point1D> data = bench::Points1D(100000, 13);
  for (double scale : {1.0, 0.2, 0.05, 0.01}) {
    // The paper's B = 64: these are its constants, ablated.
    const CoreSetTopK<Range1DProblem, PrioritySearchTree> s(
        data, {.block_size = 64, .constant_scale = scale});
    Rng rng(3);
    QueryStats stats;
    const int trials = 2000;
    for (int t = 0; t < trials; ++t) {
      const Range1D q = bench::UniformRange1D(&rng);
      const size_t k = 1 + static_cast<size_t>(rng.Below(256));
      topk::Query(s, q, k, &stats);  // untimed: counts fallbacks only
    }
    std::printf("%16.2f %10zu %12llu %11.3f%%\n", scale, s.f(),
                static_cast<unsigned long long>(stats.fallbacks),
                100.0 * static_cast<double>(stats.fallbacks) / trials);
  }
  std::printf(
      "\nExpected shape: ~0%% fallbacks at scale 1.0 (paper constants);\n"
      "rates rise only under aggressive ablation, and answers stay exact\n"
      "either way (the fallback is the verified baseline reduction).\n");
}

}  // namespace
}  // namespace topk

int main() {
  topk::Lemma1Table();
  topk::Lemma3Table();
  topk::FallbackTable();
  return 0;
}
