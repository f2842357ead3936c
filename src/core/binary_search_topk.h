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
//
// BinarySearchTopKQueryInto is the one threshold search; it takes the
// count test as a callable: ProbeReachesK here, an exact count in
// CountingTopK. SortedWeightsDesc builds the list every caller searches.

#ifndef TOPK_CORE_BINARY_SEARCH_TOPK_H_
#define TOPK_CORE_BINARY_SEARCH_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

// Every element's weight, heaviest first: the list the threshold search
// walks.
template <typename E>
std::vector<double> SortedWeightsDesc(const std::vector<E>& data) {
  std::vector<double> w;
  w.reserve(data.size());
  for (const E& e : data) w.push_back(e.weight);
  std::sort(w.begin(), w.end(), std::greater<double>());
  return w;
}

// Audit check (-DTOPK_AUDIT=ON hooks) of a SortedWeightsDesc list for n
// elements: one weight per element, heaviest first. Aborts via
// TOPK_CHECK on violation.
inline void AuditSortedWeights(const std::vector<double>& weights_desc,
                               size_t n) {
  TOPK_CHECK_EQ(weights_desc.size(), n);
  TOPK_CHECK(std::is_sorted(weights_desc.begin(), weights_desc.end(),
                            std::greater<double>()));
}

// The count test without counting: true iff a monitored probe of `pri`
// at tau hits budget min(k, n) (the clamp keeps it reachable when k > n).
// The callable refers to `pri` and `q`, so it must not outlive them.
template <typename Pri, typename Pred>
auto ProbeReachesK(const Pri& pri, const Pred& q, size_t k,
                   Scratch* scratch, QueryStats* stats,
                   trace::Tracer* tracer) {
  const size_t budget = std::min(k, pri.size());
  return [&pri, &q, budget, scratch, stats, tracer](double tau) {
    return MonitoredQuery(pri, q, tau, budget, scratch, stats, tracer)
        .hit_budget;
  };
}

// Answers a top-k query against an existing prioritized structure `pri`
// using `weights_desc`, the weights of all n elements sorted descending,
// writing the answer into *out (cleared first). `reaches_k(tau)` tells
// whether count(tau) = |{e in q(D) : w(e) >= tau}| >= k; the search finds
// the first (largest-weight) index of weights_desc where it holds. Every
// candidate pool — the probes and the final fetch — lives in a buffer
// borrowed from `scratch`, so a warm arena serves the whole query
// without allocating.
//
// Invariant used: count(tau) grows by at most one per step down
// `weights_desc` (weights are pairwise distinct up to id tie-breaks), so
// the first index whose weight admits >= k matches admits *exactly* k —
// one final un-budgeted query then fetches the answer.
//
// Intra-query parallelism: the count tests stay serial, but the final
// fetch is un-budgeted (budget n + 1, a degenerate full fetch) and runs
// through the sharded flat kernel over pri's slots when `flat` (the
// caller's flat source for pri) is engaged and a context is present.
template <typename Problem, typename Pri, typename ReachesK,
          typename Element = typename Problem::Element>
void BinarySearchTopKQueryInto(
    const Pri& pri, const std::vector<double>& weights_desc,
    const typename Problem::Predicate& q, size_t k, ReachesK&& reaches_k,
    Scratch* scratch, std::vector<Element>* out, QueryStats* stats,
    trace::Tracer* tracer, const parallel::FlatSource<Pri, Element>& flat,
    parallel::Context* par) {
  out->clear();
  if (k == 0 || weights_desc.empty()) return;
  trace::Span span(tracer, "binary_search", stats);

  uint64_t probes = 0;
  size_t lo = 0;                    // count(w[lo..]) may be < k
  size_t hi = weights_desc.size();  // sentinel: tau = -inf
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++probes;
    if (reaches_k(weights_desc[mid])) {
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
      : weights_desc_(SortedWeightsDesc(data)),
        pri_(flat_.Build(std::move(data), DirectFactory<Pri>{})) {}

  size_t size() const { return pri_.size(); }

  // Audit hook (src/audit/, -DTOPK_AUDIT=ON test sweeps): one sorted
  // weight per element, and the flat source matches pri's slots.
  // Aborts via TOPK_CHECK on violation.
  void AuditInvariants() const {
    AuditSortedWeights(weights_desc_, pri_.size());
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
        pri_, weights_desc_, q, k,
        ProbeReachesK(pri_, q, k, scratch, stats, tracer), scratch, out,
        stats, tracer, flat_, par);
  }

  const Pri& prioritized() const { return pri_; }

 private:
  std::vector<double> weights_desc_;
  // Slot weights for the sharded final fetch; engaged iff Pri has
  // stable slots and n >= kMinShardedN. Declared before pri_, whose
  // initializer builds it.
  parallel::FlatSource<Pri, Element> flat_;
  Pri pri_;
};

}  // namespace topk

#endif  // TOPK_CORE_BINARY_SEARCH_TOPK_H_
