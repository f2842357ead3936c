// The prior general reduction (Rahul & Janardan, TKDE 2014; equations (1)
// and (2) of the paper): top-k by binary search on the weight threshold.
//
// Given a prioritized structure, probe O(log n) candidate thresholds from
// the global sorted weight list; each probe is a cost-monitored
// prioritized query with budget k, so a query costs
// O(Q_pri(n)*log n + (k/B)*log n) — the multiplicative log on the output
// term is exactly what Theorems 1 and 2 remove.
//
// This serves two roles:
//   * the head-to-head baseline in the benchmarks, and
//   * the *unconditionally correct fallback* that CoreSetTopK invokes on
//     the (vanishingly rare) queries where a core-set sample is unlucky.

#ifndef TOPK_CORE_BINARY_SEARCH_TOPK_H_
#define TOPK_CORE_BINARY_SEARCH_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/factory.h"
#include "core/problem.h"
#include "core/sink.h"
#include "parallel/context.h"
#include "parallel/flat_scan.h"
#include "trace/tracer.h"

namespace topk {

// Answers a top-k query against an existing prioritized structure `pri`
// using `weights_desc`, the weights of all n elements sorted descending,
// writing the answer into *out (cleared first). Every candidate pool —
// the O(log n) probes and the final fetch — lives in a buffer borrowed
// from `scratch`, so a warm arena serves the whole query without
// allocating.
//
// Invariant used: count(tau) = |{e in q(D) : w(e) >= tau}| grows by at
// most one per step down `weights_desc` (weights are pairwise distinct up
// to id tie-breaks), so the first index whose weight admits >= k matches
// admits *exactly* k — one final un-budgeted query then fetches the
// answer.
//
// Intra-query parallelism: the O(log n) probes are budgeted (budget k)
// and stay serial, but the final fetch is un-budgeted (budget n + 1, a
// degenerate full fetch) and runs through the sharded flat kernel over
// pri's slots when `flat` (the caller's flat source for pri) is engaged
// and a context is present.
template <typename Problem, typename Pri,
          typename Element = typename Problem::Element>
void BinarySearchTopKQueryInto(
    const Pri& pri, const std::vector<double>& weights_desc,
    const typename Problem::Predicate& q, size_t k, Scratch* scratch,
    std::vector<Element>* out, QueryStats* stats, trace::Tracer* tracer,
    const parallel::FlatSource<Pri, Element>& flat, parallel::Context* par) {
  out->clear();
  if (k == 0 || weights_desc.empty()) return;
  if (k > weights_desc.size()) k = weights_desc.size();
  trace::Span span(tracer, "binary_search", stats);

  // Binary search for the first (largest-weight) index idx such that
  // count(weights_desc[idx]) >= k. One borrowed pool is recycled across
  // all probes.
  uint64_t probes = 0;
  size_t lo = 0;                    // count(w[lo..]) may be < k
  size_t hi = weights_desc.size();  // sentinel: tau = -inf
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++probes;
    MonitoredPool<Element> probe =
        MonitoredQuery(pri, q, weights_desc[mid], k, scratch, stats,
                       tracer);
    if (probe.hit_budget) {
      hi = mid;  // count >= k at mid; try a higher threshold.
    } else {
      lo = mid + 1;  // count < k; lower the threshold.
    }
  }
  span.Arg("probes", probes);
  const double tau = (lo < weights_desc.size())
                         ? weights_desc[lo]
                         : -std::numeric_limits<double>::infinity();
  FetchTopKInto<Problem>(pri, flat, q, tau, pri.size() + 1, k, scratch, out,
                         stats, tracer, par);
}

// Self-contained baseline structure: owns the prioritized structure and
// the sorted weight list.
template <typename Problem, typename Pri>
  requires PrioritizedStructure<Pri, Problem>
class BinarySearchTopK {
 public:
  using Element = typename Problem::Element;
  using Predicate = typename Problem::Predicate;
  // Substrate export, consumed by serve/shareable.h's recursive
  // thread-shareability check.
  using Prioritized = Pri;

  explicit BinarySearchTopK(std::vector<Element> data)
      : weights_desc_(MakeWeights(data)),
        pri_(flat_.Build(std::move(data), DirectFactory<Pri>{})) {}

  size_t size() const { return pri_.size(); }

  // Audit hook (src/audit/, -DTOPK_AUDIT=ON test sweeps): one sorted
  // weight per element, and the flat source matches pri's slots.
  // Aborts via TOPK_CHECK on violation.
  void AuditInvariants() const {
    TOPK_CHECK_EQ(weights_desc_.size(), pri_.size());
    TOPK_CHECK(std::is_sorted(weights_desc_.begin(), weights_desc_.end(),
                              std::greater<double>()));
    flat_.AuditInvariants(pri_);
  }

  // The k heaviest elements of q(D), heaviest first, into *out: zero
  // allocations once `scratch` and *out are warm (the serving engine's
  // steady-state path). `par` shards the final un-budgeted fetch;
  // probes stay serial.
  void QueryInto(const Predicate& q, size_t k, Scratch* scratch,
                 std::vector<Element>* out, QueryStats* stats = nullptr,
                 trace::Tracer* tracer = nullptr,
                 parallel::Context* par = nullptr) const {
    BinarySearchTopKQueryInto<Problem>(
        pri_, weights_desc_, q, k, scratch, out, stats, tracer,
        flat_, par);
  }

  const Pri& prioritized() const { return pri_; }

 private:
  static std::vector<double> MakeWeights(const std::vector<Element>& data) {
    std::vector<double> w;
    w.reserve(data.size());
    for (const Element& e : data) w.push_back(e.weight);
    std::sort(w.begin(), w.end(), std::greater<double>());
    return w;
  }

  std::vector<double> weights_desc_;
  // Slot weights for the sharded final fetch; engaged iff Pri has
  // stable slots and n >= kMinShardedN. Declared before pri_, whose
  // initializer builds it.
  parallel::FlatSource<Pri, Element> flat_;
  Pri pri_;
};

}  // namespace topk

#endif  // TOPK_CORE_BINARY_SEARCH_TOPK_H_
