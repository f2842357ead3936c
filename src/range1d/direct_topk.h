// Direct (problem-specific) top-k for 1D range reporting: lazy heap
// selection over the priority search tree.
//
// The PST is a max-heap on weight, so a top-k query is heap selection
// restricted to the x-range: a best-first search whose frontier queue
// holds unexplored subtree roots keyed by their (subtree-maximum)
// weight. Every popped node either matches the range (and is the next
// answer — popped weights are non-increasing) or lies on one of the two
// boundary paths, so a query costs O((log n + k) log(log n + k)) with
// O(n) space and needs no randomness.
//
// Role in the reproduction: this is the hand-tailored structure a
// problem expert would build *without* the paper, i.e. the yardstick
// for what the general reductions give up by being black-box
// (experiment E18 measures the gap).

#ifndef TOPK_RANGE1D_DIRECT_TOPK_H_
#define TOPK_RANGE1D_DIRECT_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/scratch.h"
#include "common/stats.h"
#include "common/weighted.h"
#include "core/problem.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"

namespace topk::range1d {

class HeapSelectTopK {
 public:
  using Element = Point1D;
  using Predicate = Range1D;

  explicit HeapSelectTopK(std::vector<Point1D> data)
      : pst_(std::move(data)) {}

  size_t size() const { return pst_.size(); }

  // The k heaviest points with x in [q.lo, q.hi], heaviest first, into
  // *out (cleared first). The frontier is a max-heap (by weight) over a
  // pool borrowed from `scratch`, driven by std::push_heap/pop_heap —
  // exactly the calls std::priority_queue is specified as — so a warm
  // arena and a warm *out serve the query with zero heap allocations.
  // `tracer` and `par` are unused.
  void QueryInto(const Range1D& q, size_t k, Scratch* scratch,
                 std::vector<Point1D>* out, QueryStats* stats = nullptr,
                 trace::Tracer* /*tracer*/ = nullptr,
                 parallel::Context* /*par*/ = nullptr) const {
    out->clear();
    if (k == 0 || pst_.size() == 0 || q.lo > q.hi) return;
    out->reserve(k < 1024 ? k : 1024);

    auto lighter = [this](int32_t a, int32_t b) {
      return HeavierThan(pst_.node_point(b), pst_.node_point(a));
    };
    ScratchVec<int32_t> pool = scratch->Borrow<int32_t>();
    std::vector<int32_t>& frontier = pool.vec();
    auto push = [&frontier, &lighter](int32_t v) {
      frontier.push_back(v);
      std::push_heap(frontier.begin(), frontier.end(), lighter);
    };
    push(pst_.root());
    while (!frontier.empty() && out->size() < k) {
      std::pop_heap(frontier.begin(), frontier.end(), lighter);
      const int32_t v = frontier.back();
      frontier.pop_back();
      AddNodes(stats, 1);
      const Point1D& p = pst_.node_point(v);
      if (Range1DProblem::Matches(q, p)) out->push_back(p);
      const double split = pst_.node_xsplit(v);
      const int32_t l = pst_.node_left(v);
      const int32_t r = pst_.node_right(v);
      if (l != PrioritySearchTree::kNil && q.lo <= split) push(l);
      if (r != PrioritySearchTree::kNil && q.hi >= split) push(r);
    }
  }

 private:
  PrioritySearchTree pst_;
};

}  // namespace topk::range1d

#endif  // TOPK_RANGE1D_DIRECT_TOPK_H_
