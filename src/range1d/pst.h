// Static priority search tree: the prioritized structure for 1D range
// reporting.
//
// McCreight's classic structure: points are arranged in a tree that is a
// balanced search tree on x (median splits) and a max-heap on weight
// (every node stores the heaviest point of its subtree's x-range; each
// point is stored exactly once). A three-sided query
// (x in [lo, hi], weight >= tau) visits the two boundary search paths
// plus, inside fully-contained subtrees, only nodes that emit — i.e.
// O(log n + t) nodes — which is exactly the Q_pri(n) + O(t) contract of
// the paper with Q_pri(n) = O(log n). Space: one node per point, O(n).

#ifndef TOPK_RANGE1D_PST_H_
#define TOPK_RANGE1D_PST_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "common/weighted.h"
#include "range1d/point1d.h"

namespace topk::range1d {

class PrioritySearchTree {
 public:
  using Element = Point1D;
  using Predicate = Range1D;

  explicit PrioritySearchTree(std::vector<Point1D> data) {
    // Node links are int32_t.
    TOPK_CHECK(data.size() <=
               static_cast<size_t>(std::numeric_limits<int32_t>::max()));
    std::sort(data.begin(), data.end(),
              [](const Point1D& a, const Point1D& b) {
                if (a.x != b.x) return a.x < b.x;
                return a.id < b.id;
              });
    nodes_.reserve(data.size());
    root_ = Build(&data, 0, data.size());
  }

  size_t size() const { return nodes_.size(); }

  // Slot access (parallel::SlotAddressable): slot i is the i-th node in
  // build (pre)order. One slot per point, fixed after construction.
  const Point1D& ElementAt(size_t slot) const { return nodes_[slot].point; }

  // Q_pri(n): one root-to-leaf descent, measured in block accesses.
  static double QueryCostBound(size_t n, size_t block_size) {
    if (n < 2) return 1.0;
    const double lg_b = std::log2(static_cast<double>(
        block_size < 2 ? size_t{2} : block_size));
    return std::max(1.0, std::log2(static_cast<double>(n)) / lg_b);
  }

  // Reports every point with x in [q.lo, q.hi] and weight >= tau, in
  // arbitrary order, stopping early when emit returns false.
  template <typename Emit>
  void QueryPrioritized(const Range1D& q, double tau, Emit&& emit,
                        QueryStats* stats = nullptr) const {
    Visit(root_, q, tau, emit, stats);
  }

  // Enumerates all points (used by tests and global rebuilding).
  template <typename F>
  void ForEach(F&& f) const {
    for (const Node& node : nodes_) f(node.point);
  }

  // Audit hook (src/audit/, -DTOPK_AUDIT=ON test sweeps): structural
  // invariants — max-heap order on (weight, id), x-split discipline on
  // both subtrees, and every point stored exactly once. Aborts via
  // TOPK_CHECK on violation.
  void AuditInvariants() const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    size_t visited = 0;
    AuditNode(root_, nullptr, -kInf, kInf, &visited);
    TOPK_CHECK_EQ(visited, nodes_.size());
  }

  // --- Low-level traversal (for heap-selection algorithms) -------------
  // The tree is a max-heap on weight: a node's point is the heaviest of
  // its subtree. kNil (-1) marks absent children.
  static constexpr int32_t kNil = -1;
  int32_t root() const { return root_; }
  const Point1D& node_point(int32_t idx) const { return nodes_[idx].point; }
  double node_xsplit(int32_t idx) const { return nodes_[idx].x_split; }
  int32_t node_left(int32_t idx) const { return nodes_[idx].left; }
  int32_t node_right(int32_t idx) const { return nodes_[idx].right; }

 private:

  struct Node {
    Point1D point;   // heaviest point of this subtree's x-range
    double x_split;  // left subtree: x <= x_split; right: x > x_split
    int32_t left = kNil;
    int32_t right = kNil;
  };

  // Consumes data[lo, hi): extracts the heaviest point as the node, then
  // splits the remainder at the x-median. O(n log n) total.
  int32_t Build(std::vector<Point1D>* data, size_t lo, size_t hi) {
    if (lo >= hi) return kNil;
    size_t best = lo;
    for (size_t i = lo + 1; i < hi; ++i) {
      if (HeavierThan((*data)[i], (*data)[best])) best = i;
    }
    Node node;
    node.point = (*data)[best];
    // Remove the heaviest point, keeping x order.
    for (size_t i = best; i + 1 < hi; ++i) (*data)[i] = (*data)[i + 1];
    const size_t count = hi - lo - 1;
    const size_t mid = lo + count / 2;  // left gets floor(count/2)
    if (count == 0) {
      node.x_split = node.point.x;
    } else if (mid == lo) {
      node.x_split = -std::numeric_limits<double>::infinity();
    } else {
      node.x_split = (*data)[mid - 1].x;
    }
    const int32_t index = static_cast<int32_t>(nodes_.size());
    nodes_.push_back(node);
    const int32_t l = Build(data, lo, mid);
    const int32_t r = Build(data, mid, hi - 1);
    nodes_[index].left = l;
    nodes_[index].right = r;
    return index;
  }

  // `parent` is null at the root; [min_x, max_x] bounds the subtree's
  // allowed x-range (split discipline: left subtree x <= x_split, right
  // subtree x >= x_split — ">=", matching Visit's duplicate-x handling).
  void AuditNode(int32_t idx, const Point1D* parent, double min_x,
                 double max_x, size_t* visited) const {
    if (idx == kNil) return;
    const Node& node = nodes_[idx];
    ++*visited;
    TOPK_CHECK(*visited <= nodes_.size());  // cycle guard
    if (parent != nullptr) TOPK_CHECK(!HeavierThan(node.point, *parent));
    TOPK_CHECK(node.point.x >= min_x && node.point.x <= max_x);
    AuditNode(node.left, &node.point, min_x,
              std::min(max_x, node.x_split), visited);
    AuditNode(node.right, &node.point, std::max(min_x, node.x_split),
              max_x, visited);
  }

  template <typename Emit>
  bool Visit(int32_t idx, const Range1D& q, double tau, Emit& emit,
             QueryStats* stats) const {
    if (idx == kNil) return true;
    const Node& node = nodes_[idx];
    AddNodes(stats, 1);
    // Heap property: nothing below is heavier than node.point.
    if (!MeetsThreshold(node.point, tau)) return true;
    if (Range1DProblem::Matches(q, node.point)) {
      if (!emit(node.point)) return false;
    }
    if (q.lo <= node.x_split) {
      if (!Visit(node.left, q, tau, emit, stats)) return false;
    }
    // ">=" (not ">") so duplicate x values straddling the split are never
    // missed; right-subtree points satisfy x >= x_split.
    if (q.hi >= node.x_split) {
      if (!Visit(node.right, q, tau, emit, stats)) return false;
    }
    return true;
  }

  std::vector<Node> nodes_;
  int32_t root_ = kNil;
};

}  // namespace topk::range1d

#endif  // TOPK_RANGE1D_PST_H_
