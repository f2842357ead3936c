// Top-k 2D orthogonal range reporting (the survey's flagship problem):
// a map application fetching the k most popular points of interest in
// the current viewport, under the Theorem 2 reduction and, for
// contrast, the problem-specific heap-selection structure on the 1D
// projection.

#include <cstdio>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "core/sampled_topk.h"
#include "range2d/point2d.h"
#include "range2d/range_tree.h"

int main() {
  using topk::range2d::Range2DProblem;
  using topk::range2d::RangeTreeMax;
  using topk::range2d::RangeTreePrioritized;
  using topk::range2d::Rect2;
  using topk::range2d::WPoint2D;

  // A city's POIs: position in [0, 100)^2 km, popularity as weight.
  topk::Rng rng(31);
  const size_t n = 300'000;
  std::vector<WPoint2D> pois(n);
  for (size_t i = 0; i < n; ++i) {
    pois[i] = {rng.NextDouble() * 100, rng.NextDouble() * 100,
               rng.NextDouble() * 1e6, i + 1};
  }

  topk::SampledTopK<Range2DProblem, RangeTreePrioritized, RangeTreeMax>
      index(pois);

  struct Viewport {
    double x1, x2, y1, y2;
    const char* label;
  };
  const Viewport views[] = {
      {49, 51, 49, 51, "downtown (2x2 km)"},
      {10, 35, 60, 90, "suburbs (25x30 km)"},
      {0, 100, 0, 100, "whole city"},
  };
  for (const Viewport& v : views) {
    topk::QueryStats stats;
    auto top = topk::Query(index, Rect2{v.x1, v.x2, v.y1, v.y2}, 5, &stats);
    std::printf("\nTop 5 POIs in %s:\n", v.label);
    for (const WPoint2D& p : top) {
      std::printf("  poi %-7llu popularity %8.0f at (%.2f, %.2f)\n",
                  static_cast<unsigned long long>(p.id), p.weight, p.x,
                  p.y);
    }
    std::printf("  [%llu structure nodes, %llu rounds]\n",
                static_cast<unsigned long long>(stats.nodes_visited),
                static_cast<unsigned long long>(stats.rounds));
  }
  return 0;
}
