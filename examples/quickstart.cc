// Quickstart: define a problem, pick a prioritized (and max) structure,
// and get top-k structures from the general reductions.
//
// The library's model (mirroring the paper): you bring
//   1. a Problem       — element + predicate + Matches + lambda,
//   2. a prioritized structure for it (here: a priority search tree),
//   3. optionally a max structure (here: a sparse-table range max),
// and the reductions hand you top-k indexes:
//   CoreSetTopK  (Theorem 1, worst case)       <- needs only (2)
//   SampledTopK  (Theorem 2, expected, no loss) <- needs (2) + (3)
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "common/random.h"
#include "common/stats.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"

int main() {
  using topk::range1d::Point1D;
  using topk::range1d::PrioritySearchTree;
  using topk::range1d::Range1D;
  using topk::range1d::Range1DProblem;
  using topk::range1d::RangeMax;

  // One million weighted points on a line.
  const size_t n = 1'000'000;
  topk::Rng rng(2016);
  std::vector<Point1D> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = {rng.NextDouble(), rng.NextDouble() * 100.0, i + 1};
  }

  // Theorem 1: top-k from prioritized reporting alone.
  topk::CoreSetTopK<Range1DProblem, PrioritySearchTree> thm1(data);
  // Theorem 2: top-k from prioritized + max reporting, no degradation.
  topk::SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax> thm2(data);

  const Range1D q{0.25, 0.75};
  std::printf("top-5 weights in x ∈ [%.2f, %.2f]\n", q.lo, q.hi);

  topk::QueryStats stats;
  std::printf("  CoreSetTopK (Thm 1):");
  for (const Point1D& p : topk::Query(thm1, q, 5, &stats)) {
    std::printf("  %.5f", p.weight);
  }
  std::printf("\n    (%llu structure nodes, %llu prioritized queries, "
              "%llu fallbacks)\n",
              static_cast<unsigned long long>(stats.nodes_visited),
              static_cast<unsigned long long>(stats.prioritized_queries),
              static_cast<unsigned long long>(stats.fallbacks));

  stats.Reset();
  std::printf("  SampledTopK (Thm 2):");
  for (const Point1D& p : topk::Query(thm2, q, 5, &stats)) {
    std::printf("  %.5f", p.weight);
  }
  std::printf("\n    (%llu structure nodes, %llu rounds)\n",
              static_cast<unsigned long long>(stats.nodes_visited),
              static_cast<unsigned long long>(stats.rounds));

  // k larger than the match count just returns every match.
  const Range1D narrow{0.5, 0.500005};
  std::printf("  narrow range [%.6f, %.6f] asking for 100:", narrow.lo,
              narrow.hi);
  std::printf(" got %zu matches\n", topk::Query(thm2, narrow, 100).size());
  return 0;
}
