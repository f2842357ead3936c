// The top-f structure of Section 3.2 (first half): a chain of nested
// core-sets answering top-k queries with k <= f, and Lemma2Step, the one
// Lemma 2 step that both the chain and CoreSetTopK's large-k ladder run.
//
// Level 0 is the input set S = R_0 with a prioritized structure on it;
// level j+1 is a core-set of level j with parameter K = f. The chain
// stops at the first level of size <= 4f (or as soon as deeper core-sets
// stop shrinking, which cannot happen with the paper's constants).
//
// A top-f query at level j is one Lemma2Step with K = k_out = f whose
// deeper set is level j + 1, reached recursively before level j fetches
// anything: the walk is bottom-up. The bottom level answers with one
// complete fetch, and each level above reads its pivot from the level
// below and fetches once. A level hands its fetched pool up uncut (an
// unordered heaviest prefix of its matches, >= f long or all of them);
// its reader, the parent's pivot read or CoreSetTopK's exit, selects
// once. An unlucky sample surfaces as nullopt and the caller
// (CoreSetTopK) falls back to the binary-search reduction.

#ifndef TOPK_CORE_TOP_F_H_
#define TOPK_CORE_TOP_F_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "common/weighted.h"
#include "core/core_set.h"
#include "core/factory.h"
#include "core/problem.h"
#include "core/sink.h"
#include "parallel/context.h"
#include "trace/tracer.h"

namespace topk {

// One Lemma 2 step (Section 3.2) on a set X indexed by `pri`, for
// parameters K and k_out <= K. TopFChain runs it at every level
// (K = k_out = f, deeper set = level j + 1); CoreSetTopK's large-k
// ladder at rung i (K = 2^i f, k_out = k, deeper set = core-set R[i]'s
// chain). The step asks the deeper set first and probes only as
// a fallback:
//   * when |X| > 4K, `deeper_top_f()` is a heaviest prefix of q(R), at
//     least min(f, |q(R)|) long, for a core-set R of X with parameter
//     K, or nullopt when there is none or it failed. If it holds at
//     least CoreSetRank(|X|) elements, its element e of that weight
//     rank (Lemma 2: weight rank [K, 4K] within q(X) w.h.p.) is the
//     pivot: the step fetches {w >= w(e)} with budget 8K + 1 (2x
//     slack), fails (nullopt) on a budget hit (rank too deep), and
//     answers with that fetch when >= k_out match;
//   * otherwise (|X| <= 4K, no pivot, or fewer than k_out matches reach
//     it) the step probes with tau = -inf and budget 4K + 1. A complete
//     probe means |q(X)| <= 4K and answers; a budget hit fails.
// So a chain's bottom level (<= 4f elements) answers with one complete
// fetch and every level above it with one pivot fetch; no pool is
// fetched only to be thrown away. The price is one descent per level
// for ranges too small to expose a pivot, where a probe alone would do.
// Returns its complete fetch from `scratch`: an unordered heaviest
// prefix of q(X), min(k_out, |q(X)|) to 8K (pivot) or 4K (probe) long.
// The deeper top-f goes back to the arena before the step borrows its
// own pool, so no pool is held across deeper_top_f()'s recursion.
template <typename Problem, typename Pri, typename DeeperTopF,
          typename E = typename Problem::Element>
std::optional<ScratchVec<E>> Lemma2Step(
    const Pri& pri, double scale, const typename Problem::Predicate& q,
    size_t K, size_t k_out, DeeperTopF&& deeper_top_f, Scratch* scratch,
    QueryStats* stats, trace::Tracer* tracer, parallel::Context* par) {
  std::optional<double> tau;  // the pivot's weight, when there is one
  if (pri.size() > 4 * K) {
    std::optional<ScratchVec<E>> deeper = deeper_top_f();
    const size_t rank = CoreSetRank(pri.size(), Problem::kLambda, scale);
    if (deeper.has_value() && deeper->size() >= rank) {
      std::nth_element(deeper->begin(), deeper->begin() + (rank - 1),
                       deeper->end(), ByWeightDesc());
      tau = (*deeper)[rank - 1].weight;
    }
  }  // only tau survives; the deeper pool returns to the arena

  ScratchVec<E> top = scratch->Borrow<E>();
  if (tau.has_value()) {
    const FetchVerdict fetched =
        FetchTopKInto<Problem>(pri, q, *tau, 8 * K + 1, k_out, scratch, &top,
                               stats, tracer, par, /*min_matched=*/k_out);
    if (fetched.hit_budget) return std::nullopt;  // rank too deep
    if (fetched.matched >= k_out) return top;
  }  // no pivot, or rank too high: only a complete probe can answer
  if (FetchTopKInto<Problem>(pri, q, -std::numeric_limits<double>::infinity(),
                             4 * K + 1, k_out, scratch, &top, stats, tracer,
                             par)
          .hit_budget) {
    return std::nullopt;  // |q(X)| > 4K, yet no pivot answered
  }
  return top;
}

template <typename Problem, typename Pri>
class TopFChain {
 public:
  using Element = typename Problem::Element;
  using Predicate = typename Problem::Predicate;

  // Builds the chain on `data`. `f` is Theorem 1's core-set parameter
  // (already clamped by the caller to be >= the Lemma 2 rank);
  // `constant_scale` is forwarded to the core-set builder; `factory`
  // constructs a Pri from a vector of elements (see core/factory.h).
  template <typename Factory = DirectFactory<Pri>>
  TopFChain(std::vector<Element> data, size_t f, double constant_scale,
            Rng* rng, const Factory& factory = {})
      : f_(f), scale_(constant_scale) {
    TOPK_CHECK(f_ >= 1);
    std::vector<Element> current = std::move(data);
    while (true) {
      const size_t n_j = current.size();
      std::vector<Element> next;
      const bool bottom = n_j <= 4 * f_;
      if (!bottom) {
        next = BuildCoreSet(current, static_cast<double>(f_),
                            Problem::kLambda, scale_, rng);
      }
      levels_.push_back(Level{factory(std::move(current)), n_j});
      if (bottom) break;
      // Guard against a non-shrinking chain (possible only with
      // aggressive constant_scale ablation): stop; queries that bottom
      // out here report failure and the caller falls back.
      if (next.size() >= n_j) break;
      current = std::move(next);
    }
  }

  size_t f() const { return f_; }
  size_t num_levels() const { return levels_.size(); }
  size_t level_size(size_t j) const { return levels_[j].n; }

  // The prioritized structure on the full input set (level 0) — shared
  // with the enclosing CoreSetTopK so the input is indexed once.
  const Pri& level0() const { return levels_.front().pri; }

  // Audit hook (src/audit/, -DTOPK_AUDIT=ON test sweeps): Lemma 2
  // nesting — every core-set level is a strictly smaller subset of its
  // parent, each level's structure indexes exactly the recorded count,
  // and the chain bottoms out at <= 4f elements unless the non-shrinking
  // guard truncated it (then the last level is the one that refused to
  // shrink). Aborts via TOPK_CHECK on violation.
  void AuditInvariants() const {
    TOPK_CHECK(f_ >= 1);
    TOPK_CHECK(!levels_.empty());
    for (size_t j = 0; j < levels_.size(); ++j) {
      TOPK_CHECK_EQ(levels_[j].pri.size(), levels_[j].n);
      if (j > 0) TOPK_CHECK_LT(levels_[j].n, levels_[j - 1].n);
    }
    // Every level above the bottom must have been worth splitting.
    for (size_t j = 0; j + 1 < levels_.size(); ++j) {
      TOPK_CHECK_LT(4 * f_, levels_[j].n);
    }
  }

  // An unordered heaviest prefix of q(S), at least min(f, |q(S)|) long,
  // borrowed from `scratch`; nullopt when an unlucky core-set defeated
  // the algorithm (caller must fall back). The whole recursion works out
  // of the arena: the steady state borrows one buffer at a time, so a
  // warm arena serves any chain depth with zero allocations.
  std::optional<ScratchVec<Element>> QueryTopF(
      const Predicate& q, Scratch* scratch, QueryStats* stats,
      trace::Tracer* tracer = nullptr,
      parallel::Context* par = nullptr) const {
    return QueryLevel(0, q, scratch, stats, tracer, par);
  }

 private:
  struct Level {
    Pri pri;
    size_t n;  // number of elements indexed at this level
  };

  std::optional<ScratchVec<Element>> QueryLevel(
      size_t j, const Predicate& q, Scratch* scratch, QueryStats* stats,
      trace::Tracer* tracer, parallel::Context* par) const {
    const Level& level = levels_[j];
    trace::Span span(tracer, "topf_level", stats);
    span.Arg("level", j);
    span.Arg("n", level.n);
    return Lemma2Step<Problem>(
        level.pri, scale_, q, f_, f_,
        [&]() -> std::optional<ScratchVec<Element>> {
          if (j + 1 >= levels_.size()) return std::nullopt;  // truncated
          return QueryLevel(j + 1, q, scratch, stats, tracer, par);
        },
        scratch, stats, tracer, par);
  }

  size_t f_;
  double scale_;
  std::vector<Level> levels_;
};

}  // namespace topk

#endif  // TOPK_CORE_TOP_F_H_
