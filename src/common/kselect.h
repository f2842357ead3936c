// k-selection and heaviest-first ordering.
//
// The paper's reductions repeatedly finish with "k-selection": given an
// unordered candidate pool that is guaranteed to contain the k heaviest
// qualifying elements, extract them in O(|pool|) time (O(|pool|/B) I/Os in
// EM). A borrowed fetch pool is an unordered heaviest prefix, handed up
// TopFChain's levels uncut and selected from once: by a chain level's
// std::nth_element at one rank, or by Theorem 1's exit SelectTopK.
//
// SelectTopK additionally orders the k survivors heaviest first. It runs
// only at the public exit: a reduction's fetch into the caller's result
// vector (core/sink.h FetchTopKInto), Theorem 1's k heaviest of its pool
// (core/core_set_topk.h), the scan, the coordinator's merge, and each
// flat-scan shard's local run (parallel/flat_scan.h). At export-size k
// (Theorem 2's terminal scan at k ~ n/2) that ordering IS the request, so
// it is linear too: SortHeaviestFirst is an LSD radix sort over an
// order-preserving 64-bit key of the weight, with std::sort below the
// E24-measured crossover kRadixSortMin where the radix passes' fixed
// cost (the histogram table) outweighs std::sort's log factor.
//
// SelectTopK picks between two selection strategies:
//   * heap-based std::partial_sort — O(|pool| log k), a single pass
//     whose k-element heap stays cache-hot;
//   * std::nth_element, then SortHeaviestFirst of the survivors —
//     O(|pool| + k) expected.
// The boundary is the E24-measured one (bench/bench_perf.cc sweeps it;
// see EXPERIMENTS.md E24 and UseHeapSelect below). The textbook
// k * log2(|pool|) < |pool| rule mispredicts BOTH regimes on real
// hardware and is deliberately not used.
//
// Buffers: the radix path works in a (key, slot) ping-pong buffer and a
// gather buffer, both passed in by the caller — borrowed from the
// query's Scratch on every src/ path, so a warm arena sorts without
// allocating. The gathered elements are copied back rather than swapped
// in: a swap would trade buffer capacities between the arena and the
// caller's vector (a serving worker's recycled result slot, say), so a
// warm worker could meet a too-small buffer and allocate again; the
// sequential copy measured within noise of the swap (EXPERIMENTS.md E24
// addendum "linear-time ordering"). The per-pass digit histograms are a
// fixed-size stack array.

#ifndef TOPK_COMMON_KSELECT_H_
#define TOPK_COMMON_KSELECT_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/scratch.h"
#include "common/weighted.h"

namespace topk {

// Truncates `pool` to its min(k, |pool|) heaviest elements, unordered.
// Linear time (std::nth_element) — the paper-exact selection primitive.
// Out of line, so its hot callers (a flat-scan shard's job, SelectTopK)
// compile alike in every TU whatever else it selects (E24 addendum).
template <typename E>
[[gnu::noinline]] void SelectTopKUnordered(std::vector<E>* pool, size_t k) {
  if (pool->size() > k) {
    std::nth_element(pool->begin(), pool->begin() + k, pool->end(),
                     ByWeightDesc());
    pool->resize(k);
  }
}

// One entry of the radix path's ping-pong buffer: an element's sort key
// and its slot in the vector being sorted.
struct RadixItem {
  uint64_t key;
  uint32_t slot;
};

// E24-measured (bench/bench_perf.cc's ordering sweep): at and above this
// many elements SortHeaviestFirst radix-sorts, below it std::sort wins.
inline constexpr size_t kRadixSortMin = 2048;

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

inline constexpr unsigned kDigitBits = 11;
inline constexpr size_t kDigitValues = size_t{1} << kDigitBits;
inline constexpr unsigned kPasses = (64 + kDigitBits - 1) / kDigitBits;

// A key whose ascending order is heaviest-first weight order. -0.0 and
// +0.0 are one weight to HeavierThan (their ties go by id), so -0.0 is
// folded into +0.0 first. A negative weight's bits already grow as it
// gets lighter; a non-negative weight's bits grow as it gets heavier, so
// all of them but the sign bit are flipped (which also places every
// non-negative weight before every negative one). Weights are never
// NaN: HeavierThan is no strict order on NaN either.
inline uint64_t HeaviestFirstKey(double weight) {
  const uint64_t bits = std::bit_cast<uint64_t>(weight == 0.0 ? 0.0 : weight);
  const uint64_t sign = bits >> 63;
  return bits ^ ((sign - 1) & (~uint64_t{0} >> 1));
}

// The radix path of SortHeaviestFirst, at any size (bench_perf's
// ordering sweep times it below the crossover too). One pass over the
// keys builds every digit's histogram; an 11-bit digit that is the same
// for every key skips its pass; the stable passes leave equal keys in
// slot order, so after gathering the elements by slot each run of equal
// weights is re-sorted to HeavierThan's id order (such runs are rare,
// and short on every measured workload).
template <typename E>
void RadixSortHeaviestFirst(std::vector<E>* v, std::vector<RadixItem>* items,
                            std::vector<E>* gather) {
  const size_t m = v->size();
  if (m < 2) return;
  TOPK_CHECK(m <= UINT32_MAX);
  items->resize(2 * m);
  RadixItem* src = items->data();
  RadixItem* dst = src + m;
  uint32_t hist[kPasses][kDigitValues] = {};
  for (size_t i = 0; i < m; ++i) {
    const uint64_t key = HeaviestFirstKey((*v)[i].weight);
    src[i] = {key, static_cast<uint32_t>(i)};
    for (unsigned p = 0; p < kPasses; ++p) {
      ++hist[p][(key >> (p * kDigitBits)) & (kDigitValues - 1)];
    }
  }
  for (unsigned p = 0; p < kPasses; ++p) {
    const unsigned shift = p * kDigitBits;
    uint32_t* offset = hist[p];
    if (offset[(src[0].key >> shift) & (kDigitValues - 1)] == m) continue;
    uint32_t sum = 0;
    for (size_t d = 0; d < kDigitValues; ++d) {
      const uint32_t count = offset[d];
      offset[d] = sum;
      sum += count;
    }
    for (size_t i = 0; i < m; ++i) {
      dst[offset[(src[i].key >> shift) & (kDigitValues - 1)]++] = src[i];
    }
    std::swap(src, dst);
  }
  gather->clear();
  gather->reserve(m);
  for (size_t i = 0; i < m; ++i) gather->push_back((*v)[src[i].slot]);
  for (size_t run = 0; run < m;) {
    size_t end = run + 1;
    while (end < m && src[end].key == src[run].key) ++end;
    if (end - run > 1) {
      std::sort(gather->begin() + static_cast<std::ptrdiff_t>(run),
                gather->begin() + static_cast<std::ptrdiff_t>(end),
                ByWeightDesc());
    }
    run = end;
  }
  std::copy(gather->begin(), gather->end(), v->begin());
}

}  // namespace kselect_internal

// Orders *v heaviest first (descending (weight, id)): std::sort below
// kRadixSortMin elements, the radix path at or above it. `items` and
// `gather` are the radix path's work buffers (any contents on entry,
// unspecified on return).
template <typename E>
void SortHeaviestFirst(std::vector<E>* v, std::vector<RadixItem>* items,
                       std::vector<E>* gather) {
  if (v->size() < kRadixSortMin) {
    std::sort(v->begin(), v->end(), ByWeightDesc());
  } else {
    kselect_internal::RadixSortHeaviestFirst(v, items, gather);
  }
}

// Truncates `pool` to its min(k, |pool|) heaviest elements, sorted by
// descending weight; `items` and `gather` as for SortHeaviestFirst.
template <typename E>
void SelectTopK(std::vector<E>* pool, size_t k,
                std::vector<RadixItem>* items, std::vector<E>* gather) {
  const size_t n = pool->size();
  if (n > k && kselect_internal::UseHeapSelect(k, n)) {
    std::partial_sort(pool->begin(), pool->begin() + k, pool->end(),
                      ByWeightDesc());
    pool->resize(k);
    return;
  }
  SelectTopKUnordered(pool, k);
  SortHeaviestFirst(pool, items, gather);
}

// As above, with throwaway work buffers (tests, benches, one-off
// callers).
template <typename E>
void SelectTopK(std::vector<E>* pool, size_t k) {
  std::vector<RadixItem> items;
  std::vector<E> gather;
  SelectTopK(pool, k, &items, &gather);
}

// As above, with the work buffers borrowed from `scratch` (the query
// path's form: a warm arena sorts without allocating). Fewer than
// kRadixSortMin survivors never reach the radix path, so a small-k
// query borrows nothing.
template <typename E>
void SelectTopK(std::vector<E>* pool, size_t k, Scratch* scratch) {
  if (std::min(pool->size(), k) < kRadixSortMin) {
    SelectTopK(pool, k);
    return;
  }
  ScratchVec<RadixItem> items = scratch->Borrow<RadixItem>();
  ScratchVec<E> gather = scratch->Borrow<E>();
  SelectTopK(pool, k, &items.vec(), &gather.vec());
}

}  // namespace topk

#endif  // TOPK_COMMON_KSELECT_H_
