// The reverse reduction (Section 1.2; [26, 28, 29]): prioritized
// reporting from any top-k structure, with no asymptotic degradation.
//
// Given (q, tau), query top-k with geometrically growing k starting at
// the block size. Stop as soon as either the structure returns fewer
// than k elements (q(D) exhausted) or the lightest returned element
// falls below tau (everything at or above tau is inside the prefix).
// With Q_top(n) + O(k/B) top-k queries this costs
// O(Q_top(n) * log(t/B) + t/B) = O(Q_top(n)) + O(t/B) amortized over the
// doubling — the paper's point that prioritized reporting is never
// harder than top-k.

#ifndef TOPK_CORE_TOPK_TO_PRIORITIZED_H_
#define TOPK_CORE_TOPK_TO_PRIORITIZED_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/scratch.h"
#include "common/stats.h"
#include "common/weighted.h"
#include "core/problem.h"
#include "trace/tracer.h"

namespace topk {

// Wraps any top-k structure (core/problem.h TopKStructure: QueryInto
// writes descending-weight answers) as a prioritized structure.
template <TopKStructure TopK>
class TopKToPrioritized {
 public:
  using Element = typename TopK::Element;
  using Predicate = typename TopK::Predicate;

  explicit TopKToPrioritized(TopK topk, size_t initial_k = 64)
      : topk_(std::move(topk)), initial_k_(initial_k == 0 ? 1 : initial_k) {}

  size_t size() const { return topk_.size(); }
  const TopK& inner() const { return topk_; }

  // Charges nothing itself (issuance is charged by the caller through
  // IssuePrioritized — see core/sink.h); the inner top-k queries charge
  // their own structural work through `stats` as usual. One Scratch and
  // one answer buffer serve the whole doubling ladder.
  template <typename Emit>
  void QueryPrioritized(const Predicate& q, double tau, Emit&& emit,
                        QueryStats* stats = nullptr,
                        trace::Tracer* tracer = nullptr) const {
    trace::Span span(tracer, "reverse_doubling", stats);
    uint64_t doublings = 0;
    size_t k = initial_k_;
    Scratch scratch;
    std::vector<Element> top;
    while (true) {
      topk_.QueryInto(q, k, &scratch, &top, stats, tracer, nullptr);
      const bool exhausted = top.size() < k;
      const bool past_tau =
          !top.empty() && !MeetsThreshold(top.back(), tau);
      if (exhausted || past_tau || k >= topk_.size()) {
        span.Arg("final_k", k);
        span.Arg("doublings", doublings);
        for (const Element& e : top) {
          if (!MeetsThreshold(e, tau)) break;  // sorted desc
          if (!emit(e)) return;
        }
        return;
      }
      k *= 2;
      ++doublings;
    }
  }

 private:
  TopK topk_;
  size_t initial_k_;
};

}  // namespace topk

#endif  // TOPK_CORE_TOPK_TO_PRIORITIZED_H_
