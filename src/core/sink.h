// Prioritized-query issuance: the ONE place its cost is charged
// (Section 3.2 of the paper for the monitored variant).
//
// QueryStats::prioritized_queries and ::elements_emitted are charged
// here, at ISSUANCE — by IssuePrioritized, MonitoredQuery and
// FetchTopKInto — and nowhere else. Structure implementations of
// QueryPrioritized (and transparent wrappers like
// audit::CheckedPrioritized, or synthesized implementations like
// TopKToPrioritized) charge only their structural work (nodes_visited)
// — if they also charged issuance the counters would double-count every
// internal delegation. Callers that invoke a structure's
// QueryPrioritized directly therefore go through IssuePrioritized; the
// reductions go through FetchTopKInto (and BinarySearchTopK's probes
// through MonitoredQuery), the budgeted variants.
//
// The reductions never count |q(D)| directly. Instead they issue a
// prioritized query with a *budget*: collect elements until either the
// query terminates by itself (the result is complete) or budget
// elements have been fetched (proving |result| >= budget).
// MonitoredQuery packages that device; FetchTopKInto follows it with
// the k-selection every reduction finishes with, and is the one place
// that decides whether a degenerate fetch runs as the sharded flat
// kernel instead.

#ifndef TOPK_CORE_SINK_H_
#define TOPK_CORE_SINK_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/kselect.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "parallel/context.h"
#include "parallel/flat_scan.h"
#include "trace/tracer.h"

namespace topk {

// Issues s.QueryPrioritized(q, tau, emit, stats) and charges the
// issuance: one prioritized query plus every element the structure
// emitted (including ones the sink rejected or k-selection later
// discards). Use this instead of calling QueryPrioritized directly
// whenever the call should be visible in QueryStats.
template <typename S, typename Pred, typename Emit,
          typename E = typename S::Element>
void IssuePrioritized(const S& s, const Pred& q, double tau, Emit&& emit,
                      QueryStats* stats,
                      trace::Tracer* tracer = nullptr) {
  trace::Span span(tracer, "prioritized_query", stats);
  if (stats != nullptr) ++stats->prioritized_queries;
  uint64_t emitted = 0;
  s.QueryPrioritized(
      q, tau,
      [&emitted, &emit](const E& e) {
        ++emitted;
        return emit(e);
      },
      stats);
  AddEmitted(stats, emitted);
}

// A monitored query's result: a pool borrowed from a Scratch (the
// buffer, capacity included, goes back to the arena when the
// ScratchVec dies) plus the budget verdict.
template <typename E>
struct MonitoredPool {
  // Elements fetched, in structure emission order. When hit_budget is
  // false this is the complete set {e in q(D) : w(e) >= tau}; when true
  // it is an arbitrary budget-sized subset of it (the query was cut off).
  ScratchVec<E> elements;
  bool hit_budget = false;
};

namespace sink_internal {

// MonitoredQuery's body, shared with FetchTopKInto's serial path:
// fills the empty `pool` and returns whether the budget was hit.
//
// Charges issuance itself instead of delegating to IssuePrioritized:
// the forwarding layer that counting through a wrapped emit adds sits
// on the per-emission hot loop — the hottest loop in the tree when
// Theorem 1's f >= n degenerates to monitored full fetches — and the
// budget cut-off element is collected anyway, so collected == emitted
// and the counters are identical either way (pinned by
// tests/stats_accounting_test.cc).
template <typename S, typename Pred, typename E>
bool MonitoredFill(const S& s, const Pred& q, double tau, size_t budget,
                   std::vector<E>* pool, QueryStats* stats,
                   trace::Tracer* tracer) {
  trace::Span span(tracer, "monitored_query", stats);
  span.Arg("budget", budget);
  if (budget == 0) {
    span.Arg("hit_budget", 1);
    return true;
  }
  pool->reserve(budget < 1024 ? budget : 1024);
  if (stats != nullptr) ++stats->prioritized_queries;
  s.QueryPrioritized(
      q, tau,
      [pool, budget](const E& e) {
        pool->push_back(e);
        return pool->size() < budget;
      },
      stats);
  AddEmitted(stats, pool->size());
  const bool hit = pool->size() >= budget;
  span.Arg("hit_budget", hit ? 1 : 0);
  return hit;
}

// The vector behind a fetch's *out.
template <typename E>
std::vector<E>* VecOf(std::vector<E>* out) {
  return out;
}
template <typename E>
std::vector<E>* VecOf(ScratchVec<E>* out) {
  return &out->vec();
}

}  // namespace sink_internal

// Runs a budget-monitored prioritized query: collects at most `budget`
// elements into a pool borrowed from `scratch`. Typical use per the
// paper: budget = 4K + 1 proves |{w >= tau} cap q(D)| > 4K whenever
// hit_budget is true. The span records the budget and whether it was
// hit. Reductions fetch through FetchTopKInto; this raw form serves
// probes that need no k-selection (BinarySearchTopK's).
template <typename S, typename Pred, typename E = typename S::Element>
MonitoredPool<E> MonitoredQuery(const S& s, const Pred& q, double tau,
                                size_t budget, Scratch* scratch,
                                QueryStats* stats,
                                trace::Tracer* tracer = nullptr) {
  MonitoredPool<E> out{scratch->Borrow<E>(), false};
  out.hit_budget = sink_internal::MonitoredFill(
      s, q, tau, budget, &out.elements.vec(), stats, tracer);
  return out;
}

// The verdict of a monitored top-k fetch: `matched` is exact when the
// budget was not hit, else a lower bound >= budget.
struct FetchVerdict {
  size_t matched = 0;
  bool hit_budget = false;
};

// The one monitored top-k fetch (Section 3.2; Theorem 2's round steps 1
// and 3): a cost-monitored prioritized query on `pri`, then k-selection.
// When the budget was not hit and matched >= min_matched, *out holds the
// min(k, matched) heaviest tau-qualifying matches of q; otherwise *out
// is empty (min_matched spares a caller that rejects a too-small fetch
// the selection it would discard). Order is promised only into a
// caller's std::vector, which receives them heaviest first; a borrowed
// ScratchVec pool is an internal candidate set and holds them unordered
// (linear selection, no sort), so a reader of one rank runs
// std::nth_element first and the public exit sorts once.
//
// The shard-or-serial decision lives here. A degenerate fetch (budget >
// n: the budget is unreachable) over a substrate with stable slots
// (parallel::SlotAddressable) and an engaged flat source runs as the
// sharded flat kernel over pri's own slots when `par` has more than
// one shard and n >= kMinShardedN, merging straight into *out; its
// exact match count reproduces every decision the serial query feeds.
// Every other fetch is the serial MonitoredQuery body plus k-selection
// (SelectTopK into a caller's vector, SelectTopKUnordered into a
// borrowed pool), and a substrate without stable slots always takes
// it: no caller shards one, and an EM substrate's I/O must flow through
// its buffer pool. Both charge one prioritized query and every match emitted
// (budget > n: never cut off); the sharded path charges its n scanned
// slots as nodes (the ScanTopK convention), once, post-merge, under one
// "flat_scan" span on the calling thread, so helpers never touch stats
// or tracers.
//
// *out is the caller's result vector or a ScratchVec borrowed from
// `scratch`. A borrowed pool is itself the serial monitored pool, so
// TopFChain's level walks hand pools up without a copy; a plain vector
// receives the survivors by one assign.
template <typename Problem, typename Pri, typename Out,
          typename E = typename Problem::Element>
FetchVerdict FetchTopKInto(const Pri& pri,
                           const parallel::FlatSource<Pri, E>& flat,
                           const typename Problem::Predicate& q, double tau,
                           size_t budget, size_t k, Scratch* scratch,
                           Out* out, QueryStats* stats,
                           trace::Tracer* tracer, parallel::Context* par,
                           size_t min_matched = 0) {
  if constexpr (parallel::SlotAddressable<Pri, E>) {
    const std::span<const double> weights = flat.weights();
    const size_t n = weights.size();
    if (par != nullptr && par->shards() > 1 && budget > n &&
        n >= parallel::kMinShardedN) {
      trace::Span span(tracer, "flat_scan", stats);
      const size_t matched = parallel::FlatScanTopKInto<Problem>(
          pri, weights, q, tau, k, par, scratch, sink_internal::VecOf(out));
      if (stats != nullptr) {
        ++stats->prioritized_queries;
        AddEmitted(stats, matched);
        AddNodes(stats, n);
      }
      span.Arg("matched", matched);
      span.Arg("shards", par->shards());
      if (matched < min_matched) out->clear();
      return {matched, false};
    }
  }

  // Serial: the monitored query into `pool`, then k-selection — ordered
  // only when the survivors leave for a caller's vector.
  constexpr bool kBorrowed = std::is_same_v<Out, ScratchVec<E>>;
  auto monitored = [&](std::vector<E>* pool) {
    const bool hit = sink_internal::MonitoredFill(pri, q, tau, budget, pool,
                                                  stats, tracer);
    const FetchVerdict verdict{pool->size(), hit};
    if (hit || verdict.matched < min_matched) {
      pool->clear();
    } else if constexpr (kBorrowed) {
      SelectTopKUnordered(pool, k);
    } else {
      SelectTopK(pool, k, scratch);
    }
    return verdict;
  };
  if constexpr (kBorrowed) {
    out->clear();
    return monitored(&out->vec());
  } else {
    ScratchVec<E> pool = scratch->Borrow<E>();
    const FetchVerdict verdict = monitored(&pool.vec());
    out->assign(pool.begin(), pool.end());
    return verdict;
  }
}

}  // namespace topk

#endif  // TOPK_CORE_SINK_H_
