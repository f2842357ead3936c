// Debug-runtime verification of the max-structure contract
// (core/problem.h): a transparent wrapper that re-validates every query.
//
// CheckedMax<S, Problem> is itself a MaxStructure over Problem and can
// replace S in any reduction (the test sweeps do so under
// -DTOPK_AUDIT=ON). On every QueryMax call it verifies, aborting via
// TOPK_CHECK on violation:
//
//   * the result is nullopt iff q(D) is empty;
//   * otherwise the result Matches(q, e) and is THE heaviest matching
//     element under the (weight, id) total order — not merely some
//     matching element — checked against a mirror copy of the data;
//   * QueryStats counters are monotone.
//
// It also aborts on a duplicate id, at construction and on every Insert
// (the library-wide precondition of common/weighted.h).
//
// All verification state is per-call, so the wrapper is exactly as
// thread-shareable as S (the substrate alias lets serve/shareable.h
// recurse into S's markers).

#ifndef TOPK_AUDIT_CHECKED_MAX_H_
#define TOPK_AUDIT_CHECKED_MAX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "common/weighted.h"
#include "core/problem.h"

namespace topk::audit {

template <typename S, typename Problem>
  requires MaxStructure<S, Problem>
class CheckedMax {
 public:
  using Element = typename Problem::Element;
  using Predicate = typename Problem::Predicate;
  // Substrate alias for serve/shareable.h's recursive gate.
  using MaxSubstrate = S;

  explicit CheckedMax(std::vector<Element> data)
      : mirror_(data), inner_(std::move(data)) {
    std::unordered_set<uint64_t> ids;
    for (const Element& e : mirror_) TOPK_CHECK(ids.insert(e.id).second);
  }

  size_t size() const { return inner_.size(); }

  static double QueryCostBound(size_t n, size_t block_size) {
    return S::QueryCostBound(n, block_size);
  }

  const S& inner() const { return inner_; }

  std::optional<Element> QueryMax(const Predicate& q,
                                  QueryStats* stats = nullptr) const {
    const QueryStats before = stats != nullptr ? *stats : QueryStats();
    std::optional<Element> got = inner_.QueryMax(q, stats);
    if (stats != nullptr) {
      QueryStats::ForEachField([&](const char*, auto member) {
        TOPK_CHECK(stats->*member >= before.*member);  // monotone
      });
    }

    std::optional<Element> want;
    for (const Element& e : mirror_) {
      if (!Problem::Matches(q, e)) continue;
      if (!want.has_value() || HeavierThan(e, *want)) want = e;
    }
    TOPK_CHECK_EQ(got.has_value(), want.has_value());
    if (got.has_value()) {
      TOPK_CHECK(Problem::Matches(q, *got));
      TOPK_CHECK_EQ(got->id, want->id);  // the heaviest, not just heavy
    }
    return got;
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

  // Enumeration passthrough, so audited substrates stay usable where a
  // reduction (e.g. SampledTopK's converse audit sweep) enumerates its
  // max structure. Walks the inner structure, not the mirror: the
  // wrapper must expose exactly what S stores.
  template <typename F>
  void ForEach(F&& f) const
    requires requires(const S& s) { s.ForEach([](const Element&) {}); }
  {
    inner_.ForEach(std::forward<F>(f));
  }

 private:
  std::vector<Element> mirror_;  // ground truth for max re-computation
  S inner_;
};

}  // namespace topk::audit

#endif  // TOPK_AUDIT_CHECKED_MAX_H_
