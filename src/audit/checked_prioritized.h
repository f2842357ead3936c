// Debug-runtime verification of the prioritized-structure contract
// (core/problem.h): a transparent wrapper that re-validates every query.
//
// CheckedPrioritized<S, Problem> is itself a PrioritizedStructure over
// Problem and can be dropped into any reduction in place of S (the test
// sweeps do exactly that under -DTOPK_AUDIT=ON). On every
// QueryPrioritized call it verifies, aborting via TOPK_CHECK on
// violation:
//
//   * every emitted element Matches(q, e) and has w(e) >= tau;
//   * no element (by id) is emitted twice;
//   * emission halts after the sink returns false — one extra emit call
//     is a contract violation, not a rounding error;
//   * QueryStats counters are monotone (a query never decreases any);
//   * completeness: when the sink never stopped the query, the emitted
//     set is exactly {e in q(D) : w(e) >= tau}, checked against a
//     mirror copy of the data;
//   * optionally (EnableCostCheck) output-sensitive accounting:
//     nodes_visited grows by at most
//     per_query * Q_pri(n) + per_emit * (t + 1) — the Q_pri(n) + O(t)
//     shape with caller-chosen constants, off by default because the
//     right constants are structure-specific.
//
// It also aborts on a duplicate id, at construction and on every Insert
// (the library-wide precondition of common/weighted.h).
//
// The wrapper holds no mutable query state (all verification state is
// per-call), so it is exactly as thread-shareable as S; the substrate
// alias below lets serve/shareable.h recurse into S's own markers.

#ifndef TOPK_AUDIT_CHECKED_PRIORITIZED_H_
#define TOPK_AUDIT_CHECKED_PRIORITIZED_H_

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "common/weighted.h"
#include "core/problem.h"

namespace topk::audit {

template <typename S, typename Problem>
  requires PrioritizedStructure<S, Problem>
class CheckedPrioritized {
 public:
  using Element = typename Problem::Element;
  using Predicate = typename Problem::Predicate;
  // Substrate alias: serve/shareable.h recurses through it, so wrapping
  // an EM-backed structure stays rejected by the thread-sharing gate.
  using Prioritized = S;

  explicit CheckedPrioritized(std::vector<Element> data)
      : mirror_(data), inner_(std::move(data)) {
    std::unordered_set<uint64_t> ids;
    for (const Element& e : mirror_) TOPK_CHECK(ids.insert(e.id).second);
  }

  size_t size() const { return inner_.size(); }

  static double QueryCostBound(size_t n, size_t block_size) {
    return S::QueryCostBound(n, block_size);
  }

  const S& inner() const { return inner_; }

  // Turns on the accounting-shape check with caller-chosen constants
  // (generous constants catch gross regressions — a structure that scans
  // everything — without tripping on a structure's honest constant
  // factors).
  void EnableCostCheck(double per_query, double per_emit,
                       size_t block_size = 2) {
    cost_per_query_ = per_query;
    cost_per_emit_ = per_emit;
    cost_block_size_ = block_size;
  }

  template <typename Emit>
  void QueryPrioritized(const Predicate& q, double tau, Emit&& emit,
                        QueryStats* stats = nullptr) const {
    const QueryStats before = stats != nullptr ? *stats : QueryStats();
    std::unordered_set<uint64_t> emitted;
    bool sink_stopped = false;
    inner_.QueryPrioritized(
        q, tau,
        [&](const Element& e) {
          TOPK_CHECK(!sink_stopped);  // emitted past a false return
          TOPK_CHECK(Problem::Matches(q, e));
          TOPK_CHECK(MeetsThreshold(e, tau));
          TOPK_CHECK(emitted.insert(e.id).second);  // duplicate emission
          if (!emit(e)) {
            sink_stopped = true;
            return false;
          }
          return true;
        },
        stats);

    if (stats != nullptr) {
      QueryStats::ForEachField([&](const char*, auto member) {
        TOPK_CHECK(stats->*member >= before.*member);  // monotone
      });
      if (cost_per_query_ > 0.0) {
        const double spent = static_cast<double>(stats->nodes_visited -
                                                 before.nodes_visited);
        const double bound =
            cost_per_query_ *
                std::max(1.0, S::QueryCostBound(size(), cost_block_size_)) +
            cost_per_emit_ * (static_cast<double>(emitted.size()) + 1.0);
        TOPK_CHECK_LE(spent, bound);
      }
    }

    if (!sink_stopped) {
      // The query ran to completion: every emitted element already
      // checked Matches + threshold + uniqueness, so cardinality against
      // the mirror proves set equality.
      size_t expect = 0;
      for (const Element& e : mirror_) {
        if (Problem::Matches(q, e) && MeetsThreshold(e, tau)) ++expect;
      }
      TOPK_CHECK_EQ(emitted.size(), expect);
    }
  }

  // Enumeration passthrough (SampledTopK's global rebuilding probes for
  // it), available iff S has it.
  template <typename F>
  void ForEach(F&& f) const
    requires requires(const S& s) { s.ForEach(f); }
  {
    inner_.ForEach(std::forward<F>(f));
  }

  // Slot passthrough (parallel::SlotAddressable), available iff S has
  // it, so a checked substrate is scanned through the same slots.
  const Element& ElementAt(size_t slot) const
    requires requires(const S& s) {
      { s.ElementAt(slot) } -> std::same_as<const Element&>;
    }
  {
    return inner_.ElementAt(slot);
  }

  // --- Dynamic passthrough (mirror kept in lockstep) --------------------

  void Insert(const Element& e)
    requires DynamicStructure<S, Problem>
  {
    TOPK_CHECK(std::none_of(
        mirror_.begin(), mirror_.end(),
        [&e](const Element& m) { return m.id == e.id; }));  // live id
    mirror_.push_back(e);
    inner_.Insert(e);
  }

  void Erase(const Element& e)
    requires DynamicStructure<S, Problem>
  {
    auto it = std::find_if(
        mirror_.begin(), mirror_.end(),
        [&e](const Element& m) { return m.id == e.id; });
    TOPK_CHECK(it != mirror_.end());  // erasing an absent element
    mirror_.erase(it);
    inner_.Erase(e);
  }

 private:
  std::vector<Element> mirror_;  // ground truth for completeness checks
  S inner_;
  double cost_per_query_ = 0.0;  // 0 = accounting-shape check disabled
  double cost_per_emit_ = 0.0;
  size_t cost_block_size_ = 2;
};

}  // namespace topk::audit

#endif  // TOPK_AUDIT_CHECKED_PRIORITIZED_H_
