// Prioritized-query issuance: the ONE place its cost is charged
// (Section 3.2 of the paper for the monitored variant).
//
// QueryStats::prioritized_queries and ::elements_emitted are charged
// here, at ISSUANCE — by exactly two entry points, IssuePrioritized and
// MonitoredQuery — and nowhere else. Structure implementations of
// QueryPrioritized (and transparent wrappers like
// audit::CheckedPrioritized, or synthesized implementations like
// TopKToPrioritized) charge only their structural work (nodes_visited)
// — if they also charged issuance the counters would double-count every
// internal delegation. Callers that invoke a structure's
// QueryPrioritized directly therefore go through IssuePrioritized; the
// reductions go through MonitoredQuery, the budgeted variant.
//
// The reductions never count |q(D)| directly. Instead they issue a
// prioritized query with a *budget*: collect elements until either the
// query terminates by itself (the result is complete) or budget
// elements have been fetched (proving |result| >= budget).
// MonitoredQuery packages that device.

#ifndef TOPK_CORE_SINK_H_
#define TOPK_CORE_SINK_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

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

// Runs a budget-monitored prioritized query: collects at most `budget`
// elements into a pool borrowed from `scratch`. Typical use per the
// paper: budget = 4K + 1 proves |{w >= tau} cap q(D)| > 4K whenever
// hit_budget is true. The span records the budget and whether it was
// hit.
//
// Charges issuance itself instead of delegating to IssuePrioritized:
// the forwarding layer that counting through a wrapped emit adds sits
// on the per-emission hot loop — the hottest loop in the tree when
// Theorem 1's f >= n degenerates to monitored full fetches — and the
// budget cut-off element is collected anyway, so collected == emitted
// and the counters are identical either way (pinned by
// tests/stats_accounting_test.cc).
template <typename S, typename Pred, typename E = typename S::Element>
MonitoredPool<E> MonitoredQuery(const S& s, const Pred& q, double tau,
                                size_t budget, Scratch* scratch,
                                QueryStats* stats,
                                trace::Tracer* tracer = nullptr) {
  trace::Span span(tracer, "monitored_query", stats);
  span.Arg("budget", budget);
  MonitoredPool<E> out{scratch->Borrow<E>(), false};
  if (budget == 0) {
    out.hit_budget = true;
    span.Arg("hit_budget", 1);
    return out;
  }
  out.elements.reserve(budget < 1024 ? budget : 1024);
  if (stats != nullptr) ++stats->prioritized_queries;
  std::vector<E>& pool = out.elements.vec();
  s.QueryPrioritized(
      q, tau,
      [&pool, budget](const E& e) {
        pool.push_back(e);
        return pool.size() < budget;
      },
      stats);
  AddEmitted(stats, pool.size());
  out.hit_budget = pool.size() >= budget;
  span.Arg("hit_budget", out.hit_budget ? 1 : 0);
  return out;
}

// Accounting for a degenerate monitored fetch executed as a sharded
// flat scan (parallel::FlatScanTopKInto). The protocol-visible charges
// are identical to the MonitoredQuery the kernel replaces — one
// prioritized query issued, every tau-qualifying match emitted (budget
// > n means the serial query could never be cut off, so emitted ==
// matched) — while the structural work is the scan itself: `scanned`
// flat slots visited instead of a substrate traversal (the ScanTopK
// convention). Lives here so the single-charge-site rule keeps holding:
// the kernel itself charges nothing, callers charge exactly once, after
// the merge, on the calling thread.
inline void ChargeFlatScan(QueryStats* stats, size_t scanned,
                           size_t emitted) {
  if (stats == nullptr) return;
  ++stats->prioritized_queries;
  AddEmitted(stats, emitted);
  AddNodes(stats, scanned);
}

// Degenerate monitored fetch (budget > n: a full fetch the budget can
// never cut off) executed as the sharded flat kernel over `slots` — the
// caller's own substrate when it is SlotAddressable, else its
// FlatMirror — whose slot weights are `weights`. Writes the
// min(k, matched) heaviest tau-qualifying matches of q into *out,
// sorted heaviest-first, and returns the EXACT match count — which
// reproduces every protocol decision the serial MonitoredQuery feeds:
// the serial query hits a budget b iff matched >= b, and its complete
// pool has exactly `matched` elements. Opens one "flat_scan" span on
// the calling thread (helpers never touch stats or tracers) and charges
// the issuance once, post-merge, so span self-costs telescope.
template <typename Problem, typename Slots>
size_t ShardedFetchInto(const Slots& slots, std::span<const double> weights,
                        const typename Problem::Predicate& q, double tau,
                        size_t k, parallel::Context* par, Scratch* scratch,
                        std::vector<typename Problem::Element>* out,
                        QueryStats* stats, trace::Tracer* tracer) {
  trace::Span span(tracer, "flat_scan", stats);
  const size_t matched = parallel::FlatScanTopKInto<Problem>(
      slots, weights, q, tau, k, par, scratch, out);
  ChargeFlatScan(stats, weights.size(), matched);
  span.Arg("matched", matched);
  span.Arg("shards", par == nullptr ? 1 : par->shards());
  return matched;
}

}  // namespace topk

#endif  // TOPK_CORE_SINK_H_
