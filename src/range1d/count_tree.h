// Exact counting structure for 1D range reporting: a merge-sort tree.
//
// A balanced tree over the x-sorted points; each node stores the
// weights of its x-contiguous range, sorted. Count(q, tau) =
// |{e : x in [q.lo, q.hi], w(e) >= tau}| decomposes the x-range into
// O(log n) canonical nodes and binary-searches each weight list:
// O(log^2 n) time, O(n log n) space.
//
// This powers the counting-based reduction of the paper's Section 2
// (Rahul–Janardan), whose counter contract (core/problem.h
// CounterStructure) requires an exact count.

#ifndef TOPK_RANGE1D_COUNT_TREE_H_
#define TOPK_RANGE1D_COUNT_TREE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "range1d/point1d.h"

namespace topk::range1d {

class CountTree {
 public:
  using Element = Point1D;
  using Predicate = Range1D;

  explicit CountTree(std::vector<Point1D> data) {
    std::sort(data.begin(), data.end(),
              [](const Point1D& a, const Point1D& b) {
                if (a.x != b.x) return a.x < b.x;
                return a.id < b.id;
              });
    n_ = data.size();
    xs_.reserve(n_);
    for (const Point1D& p : data) xs_.push_back(p.x);
    if (n_ == 0) return;
    nodes_.assign(4 * n_, {});
    Build(1, 0, n_, data);
  }

  size_t size() const { return n_; }

  static double QueryCostBound(size_t n, size_t block_size) {
    if (n < 2) return 1.0;
    const double lg_b = std::log2(static_cast<double>(
        block_size < 2 ? size_t{2} : block_size));
    const double lg_n = std::log2(static_cast<double>(n));
    return std::max(1.0, lg_n * lg_n / lg_b);
  }

  // |{e : x in [q.lo, q.hi] and w(e) >= tau}|.
  size_t Count(const Range1D& q, double tau,
               QueryStats* stats = nullptr) const {
    if (n_ == 0 || q.lo > q.hi) return 0;
    const size_t lo = static_cast<size_t>(
        std::lower_bound(xs_.begin(), xs_.end(), q.lo) - xs_.begin());
    const size_t hi = static_cast<size_t>(
        std::upper_bound(xs_.begin(), xs_.end(), q.hi) - xs_.begin());
    if (lo >= hi) return 0;
    return CountAt(1, 0, n_, lo, hi, tau, stats);
  }

 private:
  void Build(size_t node, size_t lo, size_t hi,
             const std::vector<Point1D>& data) {
    std::vector<double>& w = nodes_[node];
    w.reserve(hi - lo);
    for (size_t i = lo; i < hi; ++i) w.push_back(data[i].weight);
    std::sort(w.begin(), w.end());
    if (hi - lo == 1) return;
    const size_t mid = lo + (hi - lo) / 2;
    Build(2 * node, lo, mid, data);
    Build(2 * node + 1, mid, hi, data);
  }

  size_t CountAt(size_t node, size_t lo, size_t hi, size_t a, size_t b,
                 double tau, QueryStats* stats) const {
    if (b <= lo || a >= hi) return 0;
    AddNodes(stats, 1);
    if (a <= lo && hi <= b) {
      const std::vector<double>& w = nodes_[node];
      return static_cast<size_t>(
          w.end() - std::lower_bound(w.begin(), w.end(), tau));
    }
    const size_t mid = lo + (hi - lo) / 2;
    return CountAt(2 * node, lo, mid, a, b, tau, stats) +
           CountAt(2 * node + 1, mid, hi, a, b, tau, stats);
  }

  size_t n_ = 0;
  std::vector<double> xs_;                 // sorted x
  std::vector<std::vector<double>> nodes_;  // sorted weights per node
};

}  // namespace topk::range1d

#endif  // TOPK_RANGE1D_COUNT_TREE_H_
