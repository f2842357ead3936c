// k-selection utilities.
//
// The paper's reductions repeatedly finish with "k-selection": given an
// unordered candidate pool that is guaranteed to contain the k heaviest
// qualifying elements, extract them in O(|pool|) time (O(|pool|/B) I/Os in
// EM). SelectTopK additionally sorts the k survivors by descending
// weight — a k log k afterthought paid only at the public exit: a
// reduction's fetch into the caller's result vector (core/sink.h
// FetchTopKInto) or Theorem 1's k-prefix of its top-f
// (core/core_set_topk.h). Internal candidate pools — every borrowed
// fetch pool, TopFChain's per-level top-f — keep the paper-exact
// unordered semantics of SelectTopKUnordered and read a single rank
// with std::nth_element.
//
// SelectTopK picks between two strategies:
//   * heap-based std::partial_sort — O(|pool| log k), a single pass
//     whose k-element heap stays cache-hot;
//   * std::nth_element + std::sort of the survivors —
//     O(|pool| + k log k) expected.
// The boundary is the E24-measured one (bench/bench_perf.cc sweeps it;
// see EXPERIMENTS.md E24 and UseHeapSelect below). The textbook
// k * log2(|pool|) < |pool| rule mispredicts BOTH regimes on real
// hardware and is deliberately not used. SelectTopKUnordered stays
// nth_element-only — the paper-exact O(|pool|) primitive.

#ifndef TOPK_COMMON_KSELECT_H_
#define TOPK_COMMON_KSELECT_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/weighted.h"

namespace topk {

// Truncates `pool` to its min(k, |pool|) heaviest elements, unordered.
// Linear time (std::nth_element) — the paper-exact selection primitive.
template <typename E>
void SelectTopKUnordered(std::vector<E>* pool, size_t k) {
  if (pool->size() > k) {
    std::nth_element(pool->begin(), pool->begin() + k, pool->end(),
                     ByWeightDesc());
    pool->resize(k);
  }
}

namespace kselect_internal {

// E24-measured strategy boundary (bench/bench_perf.cc; random pools of
// 24-byte elements). Two regimes:
//   * cache-resident pools (below ~8K elements): one nth_element
//     partition pass is so cheap that the heap's pop chain loses for
//     all but tiny k — partial_sort wins only up to k ~ n/512, and by
//     sub-microsecond margins;
//   * larger-than-cache pools: nth_element's partition passes go to
//     memory and its per-element cost jumps ~6x, while partial_sort's
//     single scan (the k-element heap stays cache-hot) does not —
//     partial_sort wins by 3-5x at small k and stays ahead until
//     k ~ 3*sqrt(n), i.e. while k^2 < ~10n.
inline bool UseHeapSelect(size_t k, size_t n) {
  constexpr size_t kCacheResidentPool = 8192;  // elements, ~L2 boundary
  if (n < kCacheResidentPool) return k * 512 <= n;
  return static_cast<double>(k) * static_cast<double>(k) <
         10.0 * static_cast<double>(n);
}

}  // namespace kselect_internal

// Truncates `pool` to its min(k, |pool|) heaviest elements, sorted by
// descending weight.
template <typename E>
void SelectTopK(std::vector<E>* pool, size_t k) {
  const size_t n = pool->size();
  if (n <= k) {
    std::sort(pool->begin(), pool->end(), ByWeightDesc());
    return;
  }
  if (kselect_internal::UseHeapSelect(k, n)) {
    std::partial_sort(pool->begin(), pool->begin() + k, pool->end(),
                      ByWeightDesc());
    pool->resize(k);
    return;
  }
  SelectTopKUnordered(pool, k);
  std::sort(pool->begin(), pool->end(), ByWeightDesc());
}

}  // namespace topk

#endif  // TOPK_COMMON_KSELECT_H_
