// The counting-based reduction of Section 2 (Rahul–Janardan, improved
// as described by the paper): top-k from a reporting structure plus an
// EXACT counting structure.
//
// Query: binary-search the global sorted weight list for the largest
// threshold tau* whose count is >= k (O(log n) counting queries), then
// one prioritized fetch at tau* plus k-selection; the fetch returns
// between k and the count at the next weight step. The search is
// BinarySearchTopKQueryInto (core/binary_search_topk.h), the one
// threshold search, with the exact count as its count test.
//
// Cost: O(Q_cnt(n) * log n + Q_rep(n) + k/B). Space: O(S_rep + S_cnt).
// Implemented as the paper's second baseline: the section-2 reduction
// carries a log n multiplier on the counting term that Theorems 1 and 2
// eliminate.
//
// Counter contract (core/problem.h CounterStructure):
//   size_t Count(q, tau, stats)   — returns exactly
//                                   |{e in q(D) : w(e) >= tau}|.
// The paper also admits c-approximate counters (Count in
// [|exact|, c*|exact|]) by terminating the search on a count in
// [k, c*k]; that termination is not implemented, and with an
// overcounting counter the search above would stop early and return
// fewer than k elements.

#ifndef TOPK_CORE_COUNTING_TOPK_H_
#define TOPK_CORE_COUNTING_TOPK_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/binary_search_topk.h"
#include "core/problem.h"
#include "parallel/context.h"
#include "trace/tracer.h"

namespace topk {

template <typename Problem, typename Pri, typename Counter>
  requires PrioritizedStructure<Pri, Problem> &&
           CounterStructure<Counter, Problem>
class CountingTopK {
 public:
  using Element = typename Problem::Element;
  using Predicate = typename Problem::Predicate;
  // Substrate exports, consumed by serve/shareable.h's recursive
  // thread-shareability check.
  using Prioritized = Pri;
  using CounterStructure = Counter;

  explicit CountingTopK(std::vector<Element> data)
      : weights_desc_(SortedWeightsDesc(data)),
        counter_(data),
        pri_(std::move(data)),
        n_(pri_.size()) {}

  size_t size() const { return n_; }

  // Audit hook (src/audit/, -DTOPK_AUDIT=ON test sweeps): one sorted
  // weight per element. Aborts via TOPK_CHECK on violation.
  void AuditInvariants() const {
    TOPK_CHECK_EQ(pri_.size(), n_);
    AuditSortedWeights(weights_desc_, n_);
  }

  // The k heaviest elements of q(D), heaviest first, into *out (cleared
  // first): the final fetch pool is borrowed from `scratch`, so a warm
  // arena and a warm *out serve the query with zero heap allocations
  // (the binary search itself only issues counting probes). The
  // counting probes stay serial (they are the cheap O(Q_cnt log n)
  // head); the final tally fetch is un-budgeted (n + 1, always
  // degenerate) and runs sharded when `par` is present.
  void QueryInto(const Predicate& q, size_t k, Scratch* scratch,
                 std::vector<Element>* out, QueryStats* stats = nullptr,
                 trace::Tracer* tracer = nullptr,
                 parallel::Context* par = nullptr) const {
    // No k clamp: an exact count never reaches k > n, so the search
    // runs down to tau = -inf.
    BinarySearchTopKQueryInto<Problem>(
        pri_, weights_desc_, q, k,
        [this, &q, k, stats](double tau) {
          if (stats != nullptr) ++stats->max_queries;  // count probes
          return counter_.Count(q, tau, stats) >= k;
        },
        scratch, out, stats, tracer, par);
  }

 private:
  std::vector<double> weights_desc_;
  Counter counter_;
  Pri pri_;
  size_t n_;
};

}  // namespace topk

#endif  // TOPK_CORE_COUNTING_TOPK_H_
