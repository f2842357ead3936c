// Top-k core-sets (Lemma 2 of the paper).
//
// For a lambda-polynomially-bounded problem and a parameter
// K >= 4*lambda*ln n, a core-set R of D is a subset with
//
//   * |R| <= 12*lambda*(n/K)*ln n, and
//   * for every predicate q with |q(D)| >= 4K: |q(R)| > 8*lambda*ln n and
//     the element of weight rank ceil(8*lambda*ln n) in q(R) has weight
//     rank in [K, 4K] in q(D).
//
// The lemma is existential (a p-sample with p = 4*(lambda/K)*ln n works
// with positive probability). The builder below draws such a sample and
// enforces the *size* bound by redrawing (Markov: each draw satisfies it
// with probability >= 2/3); the per-query rank property holds w.h.p. with
// the paper's constants and is *verified at query time* by the reductions,
// which fall back to an unconditionally correct algorithm when it fails.

#ifndef TOPK_CORE_CORE_SET_H_
#define TOPK_CORE_CORE_SET_H_

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/rank_sampling.h"

namespace topk {

// The sampling probability of Lemma 2: p = 4*(lambda/K)*ln n, clamped to
// [0, 1]. `scale` multiplies the constant (ablation; 1.0 = paper).
inline double CoreSetProbability(size_t n, double K, double lambda,
                                 double scale) {
  if (n == 0 || K <= 0) return 0.0;
  double p = scale * 4.0 * (lambda / K) * std::log(static_cast<double>(n));
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  return p;
}

// The pivot rank of Lemma 2: ceil(8*lambda*ln n), at least 1. A query
// q with |q(D)| >= 4K reads the element of this weight rank in q(R) as a
// proxy for weight rank ~[K, 4K] in q(D).
inline size_t CoreSetRank(size_t n, double lambda, double scale) {
  if (n <= 1) return 1;
  double r =
      std::ceil(scale * 8.0 * lambda * std::log(static_cast<double>(n)));
  return r < 1.0 ? size_t{1} : static_cast<size_t>(r);
}

// Lemma 2's proof succeeds with probability > 1/6 per draw; the builder
// redraws a core-set whose *size* exceeds the Markov bound (3np) up to
// this many times before accepting the smallest draw seen.
inline constexpr size_t kMaxCoreSetAttempts = 16;

// Draws a core-set of `data` with parameter K. Redraws (up to
// kMaxCoreSetAttempts times) while the draw exceeds the Markov size
// bound 3*n*p = 12*lambda*(n/K)*ln n; returns the smallest draw if all
// attempts exceed it (correctness is unaffected, only space).
template <typename E>
std::vector<E> BuildCoreSet(const std::vector<E>& data, double K,
                            double lambda, double scale, Rng* rng) {
  const size_t n = data.size();
  const double p = CoreSetProbability(n, K, lambda, scale);
  const double size_bound = 3.0 * p * static_cast<double>(n);
  std::vector<E> best;
  bool have_best = false;
  for (size_t attempt = 0; attempt < kMaxCoreSetAttempts; ++attempt) {
    std::vector<E> draw = PSample(data, p, rng);
    if (static_cast<double>(draw.size()) <= size_bound) return draw;
    if (!have_best || draw.size() < best.size()) {
      best = std::move(draw);
      have_best = true;
    }
  }
  return best;
}

}  // namespace topk

#endif  // TOPK_CORE_CORE_SET_H_
