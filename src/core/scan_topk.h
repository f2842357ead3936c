// Naive baseline: full scan plus k-selection.
//
// O(n/B) I/Os per query regardless of k — the structure every reduction
// must beat for small k, and the structure both reductions *become* for
// k = Omega(n).

#ifndef TOPK_CORE_SCAN_TOPK_H_
#define TOPK_CORE_SCAN_TOPK_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/kselect.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/problem.h"

namespace topk {

template <typename Problem>
class ScanTopK {
 public:
  using Element = typename Problem::Element;
  using Predicate = typename Problem::Predicate;

  explicit ScanTopK(std::vector<Element> data) : data_(std::move(data)) {}

  size_t size() const { return data_.size(); }

  // The k heaviest elements of q(D), heaviest first, into *out (cleared
  // first). The matches are collected straight into *out and ordered
  // with work buffers borrowed from `scratch`, so a warm *out and arena
  // serve the query with zero heap allocations; `tracer` and `par` are
  // unused (there is nothing to trace or shard beyond the one pass).
  void QueryInto(const Predicate& q, size_t k, Scratch* scratch,
                 std::vector<Element>* out, QueryStats* stats = nullptr,
                 trace::Tracer* /*tracer*/ = nullptr,
                 parallel::Context* /*par*/ = nullptr) const {
    AddNodes(stats, data_.size());
    if (stats != nullptr) ++stats->full_scans;
    out->clear();
    for (const Element& e : data_) {
      if (Problem::Matches(q, e)) out->push_back(e);
    }
    SelectTopK(out, k, scratch);
  }

 private:
  std::vector<Element> data_;
};

}  // namespace topk

#endif  // TOPK_CORE_SCAN_TOPK_H_
