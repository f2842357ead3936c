// Sharded flat scan: the parallel kernel behind every degenerate
// monitored fetch.
//
// When a reduction's monitored top-k fetch (core/sink.h FetchTopKInto)
// has budget > n (Theorem 1's k >= n/2 full scan and its large-k
// fallback fetches, TopFChain level walks at degenerate f, Theorem 2's
// terminal scan, CountingTopK's final tally, BinarySearchTopK's
// unbudgeted fetch), the budget is unreachable: the call is exactly
// "count the tau-qualifying matches and keep the k heaviest". That
// computation is embarrassingly parallel, and FlatScanTopKInto runs it
// sharded in two regions:
//
//   shard -> sorted local run | co-ranked split -> sharded merge.
//
// Slots: the kernel reads elements through a SlotAddressable source —
// size() dense slots, ElementAt(slot) — and a contiguous array of the
// slot weights, which is all the tau prefilter reads (a branchless
// compare-and-compress over doubles: the measured SIMD-friendly layout;
// see EXPERIMENTS.md E27). Only a substrate with stable slots (the
// PST's nodes_) is scanned: it is its own slot source, and its
// reduction keeps just the slot weights (FlatSource). A substrate
// without stable slots is never sharded; its fetches run its own
// monitored query, so an EM substrate's I/O still flows through its
// buffer pool.
//
// Region 1: the slots are cut into 512-slot blocks and shard s scans
// blocks s, s + S, s + 2S, ... Interleaving balances the shards for any
// slot order (the PST's preorder clusters by x, so contiguous slices
// would pile a wide range's matches onto a few shards). Each shard
// prunes into its own pool with SelectTopKUnordered, then finishes on
// its own thread with SelectTopK: the pool becomes a sorted run holding
// that shard's top-min(k, |pool|), heaviest first. The E24 strategy
// rule applies per run, and so does SortHeaviestFirst's crossover: at
// export-size k every shard's whole pool is its run, and a pool of
// kRadixSortMin or more elements is ordered by the linear radix path in
// that shard's own borrowed work buffers.
//
// Region 2: the output is want = min(k, total run length) elements.
// Shard j owns output ranks [want*j/S, want*(j+1)/S). It finds its
// slice's start in every run by co-ranking — an element's rank in the
// merged order is its index in its own run plus the number of heavier
// elements in each other run (a partition_point), which grows with the
// index, so a binary search per run finds how many of that run's
// elements precede the slice — and S-way merges its slice straight
// into *out. Slices are disjoint, so the region needs no
// synchronization. Below kMinShardedN output elements the second
// barrier costs more than it saves and the caller merges serially.
//
// Exactness: (weight, id) is a strict total order, so the union of the
// per-shard top-min(k, |shard|) runs supersets the global top-k, every
// element has a unique merged rank (the co-ranks of rank r sum to r
// exactly), and the exact match count reproduces every protocol
// decision the monitored query would have made (hit_budget <=> count
// >= budget).
//
// Accounting: this kernel charges NOTHING. FetchTopKInto (core/sink.h —
// the single charge site) decides when to run it and charges the
// issuance after the merge, under one "flat_scan" span opened on the
// calling thread, so span self-costs still telescope to QueryStats
// totals and helpers never touch stats or tracers.
//
// Scratch: all shard pools, and each shard's radix work buffers, are
// borrowed from the QUERY's Scratch by the calling thread before the
// first region; helpers only ever touch the borrowed vectors' contents,
// never arena bookkeeping. The merge writes into *out after one resize,
// so a warm output buffer never allocates.

#ifndef TOPK_PARALLEL_FLAT_SCAN_H_
#define TOPK_PARALLEL_FLAT_SCAN_H_

#include <algorithm>
#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/function_ref.h"
#include "common/kselect.h"
#include "common/scratch.h"
#include "common/weighted.h"
#include "parallel/context.h"

namespace topk::parallel {

// Sharding is bounded: more shards than this never helps a memory-bound
// scan, and the fixed bound keeps the kernel's per-shard state in
// fixed-size arrays (no allocation on the query path).
inline constexpr size_t kMaxShards = 32;

// Below this the scan (or, for the merge, the output) fits comfortably
// in one core's cache and the barrier handshake costs more than it
// saves.
inline constexpr size_t kMinShardedN = 4096;

// A slot source for the kernel: size() dense slots, each holding one
// element, read by index. Slots never move while the source lives, so
// slot i's weight can be copied out once (FlatSource's weight array).
template <typename S, typename E>
concept SlotAddressable = requires(const S& s, size_t slot) {
  { s.size() } -> std::convertible_to<size_t>;
  { s.ElementAt(slot) } -> std::same_as<const E&>;
};

// What a reduction keeps so the kernel can scan its substrate Pri: the
// slot weights of a SlotAddressable Pri big enough to ever shard
// (n >= kMinShardedN; 8 B per element), else nothing. While it is
// empty no fetch shards, so a substrate without stable slots always
// fetches through its own query (see core/sink.h FetchTopKInto). No
// pointer into Pri is kept: the fetch is handed the caller's own Pri at
// query time, so moving or copying the reduction cannot leave one
// dangling.
template <typename Pri, typename E>
class FlatSource {
 public:
  // Builds the substrate as make(std::move(data)) and (re)reads the
  // slot weights from it.
  template <typename Make>
  Pri Build(std::vector<E> data, const Make& make) {
    Pri pri = make(std::move(data));
    weights_ = SlotWeights(pri);
    return pri;
  }

  std::span<const double> weights() const { return weights_; }

  // Audit hook for the owning reduction: the source is engaged exactly
  // when pri has stable slots and is big enough to ever shard, and
  // (under TOPK_AUDIT, O(n)) weights()[i] is the weight of slot i.
  void AuditInvariants(const Pri& pri) const {
    const bool engaged =
        SlotAddressable<Pri, E> && pri.size() >= kMinShardedN;
    TOPK_CHECK_EQ(weights_.size(), engaged ? pri.size() : size_t{0});
#ifdef TOPK_AUDIT
    TOPK_CHECK(weights_ == SlotWeights(pri));
#endif  // TOPK_AUDIT
  }

 private:
  // pri's slot weights when it is engaged, else empty.
  static std::vector<double> SlotWeights(const Pri& pri) {
    std::vector<double> w;
    if constexpr (SlotAddressable<Pri, E>) {
      if (pri.size() >= kMinShardedN) {
        w.resize(pri.size());
        for (size_t i = 0; i < w.size(); ++i) w[i] = pri.ElementAt(i).weight;
      }
    }
    return w;
  }

  std::vector<double> weights_;
};

namespace flat_scan_internal {

// Rank of runs[s][i] in the merged heaviest-first order of all runs:
// its index in its own run plus the heavier elements of every other.
template <typename E>
size_t MergedRank(const std::span<const E>* runs, size_t shards, size_t s,
                  size_t i) {
  const E& e = runs[s][i];
  size_t rank = i;
  for (size_t t = 0; t < shards; ++t) {
    if (t == s) continue;
    rank += static_cast<size_t>(
        std::partition_point(runs[t].begin(), runs[t].end(),
                             [&](const E& x) { return HeavierThan(x, e); }) -
        runs[t].begin());
  }
  return rank;
}

// Co-ranks of output rank r: heads[s] = how many of run s's elements
// have merged rank < r. MergedRank grows with the index (and is >= it),
// so a binary search over [0, min(|run|, r)] finds each one; they sum
// to r exactly because the order is strict.
template <typename E>
void CoRanks(const std::span<const E>* runs, size_t shards, size_t r,
             size_t* heads) {
  for (size_t s = 0; s < shards; ++s) {
    size_t lo = 0;
    size_t hi = runs[s].size() < r ? runs[s].size() : r;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (MergedRank(runs, shards, s, mid) < r) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    heads[s] = lo;
  }
}

// Writes the next `count` elements of the merged order, starting from
// the run positions in heads (advanced in place), to out[0, count).
template <typename E>
void MergeRuns(const std::span<const E>* runs, size_t shards, size_t* heads,
               E* out, size_t count) {
  for (size_t o = 0; o < count; ++o) {
    size_t best = shards;
    for (size_t s = 0; s < shards; ++s) {
      if (heads[s] == runs[s].size()) continue;
      if (best == shards ||
          HeavierThan(runs[s][heads[s]], runs[best][heads[best]])) {
        best = s;
      }
    }
    out[o] = runs[best][heads[best]++];
  }
}

}  // namespace flat_scan_internal

// Scans the slots of `slots` (weights[i] is slot i's weight) for
// elements matching `q` with weight >= tau, writes the min(k, matched)
// heaviest into *out sorted heaviest-first, and returns the EXACT match
// count. Runs sharded across par's workers when profitable (par may be
// null: serial). Charges nothing — see the file comment.
template <typename Problem, typename Slots>
  requires SlotAddressable<Slots, typename Problem::Element>
size_t FlatScanTopKInto(const Slots& slots, std::span<const double> weights,
                        const typename Problem::Predicate& q, double tau,
                        size_t k, Context* par, Scratch* scratch,
                        std::vector<typename Problem::Element>* out) {
  using Element = typename Problem::Element;
  const size_t n = slots.size();
  TOPK_CHECK_EQ(weights.size(), n);
  // Survivor indices below are uint32_t.
  TOPK_CHECK(static_cast<uint64_t>(n) <= (uint64_t{1} << 32));
  const bool thresholded = tau != -std::numeric_limits<double>::infinity();
  // The unit of interleaving; one prune batch per block keeps the idx
  // buffer L1-sized.
  constexpr size_t kBlock = 512;
  const size_t blocks = (n + kBlock - 1) / kBlock;

  size_t shards = 1;
  if (par != nullptr && par->shards() > 1 && n >= kMinShardedN) {
    shards = par->shards() < kMaxShards ? par->shards() : kMaxShards;
  }

  std::array<std::optional<ScratchVec<Element>>, kMaxShards> pools;
  std::array<std::optional<ScratchVec<uint32_t>>, kMaxShards> idxs;
  std::array<std::optional<ScratchVec<RadixItem>>, kMaxShards> sort_items;
  std::array<std::optional<ScratchVec<Element>>, kMaxShards> gathers;
  std::array<size_t, kMaxShards> matched{};
  for (size_t s = 0; s < shards; ++s) {
    pools[s].emplace(scratch->Borrow<Element>());
    idxs[s].emplace(scratch->Borrow<uint32_t>());
    (*idxs[s]).resize(kBlock);
    sort_items[s].emplace(scratch->Borrow<RadixItem>());
    gathers[s].emplace(scratch->Borrow<Element>());
  }

  // Per-shard pools are pruned back to k whenever they reach this, and
  // the weakest survivor then prefilters further insertions. Saturates:
  // for k > SIZE_MAX / 4 the pool is never pruned (4 * k would wrap).
  const size_t cap = k > std::numeric_limits<size_t>::max() / 4
                         ? std::numeric_limits<size_t>::max()
                         : std::max(4 * k, size_t{256});

  auto job = [&](size_t s) {
    std::vector<Element>& pool = (*pools[s]).vec();
    std::vector<uint32_t>& idx = (*idxs[s]).vec();
    size_t count = 0;
    bool have_floor = false;
    Element floor{};  // weakest kept element once the pool has pruned
    auto consider = [&](const Element& e) {
      ++count;
      if (k == 0) return;
      if (have_floor && !HeavierThan(e, floor)) return;
      pool.push_back(e);
      if (pool.size() >= cap) {
        SelectTopKUnordered(&pool, k);
        floor = pool[0];
        for (size_t i = 1; i < pool.size(); ++i) {
          if (HeavierThan(floor, pool[i])) floor = pool[i];
        }
        have_floor = true;
      }
    };
    for (size_t b = s; b < blocks; b += shards) {
      const size_t base = b * kBlock;
      const size_t end = base + kBlock < n ? base + kBlock : n;
      if (!thresholded) {
        for (size_t i = base; i < end; ++i) {
          const Element& e = slots.ElementAt(i);
          if (Problem::Matches(q, e)) consider(e);
        }
        continue;
      }
      // Branchless compare-and-compress over the contiguous weight
      // array (the tau prefilter), then the predicate only runs on
      // survivors.
      size_t m = 0;
      for (size_t i = base; i < end; ++i) {
        idx[m] = static_cast<uint32_t>(i);
        m += static_cast<size_t>(weights[i] >= tau);
      }
      for (size_t j = 0; j < m; ++j) {
        const Element& e = slots.ElementAt(idx[j]);
        if (Problem::Matches(q, e)) consider(e);
      }
    }
    matched[s] = count;
    // The shard's sorted local run.
    SelectTopK(&pool, k, &(*sort_items[s]).vec(), &(*gathers[s]).vec());
  };

  if (shards == 1) {
    job(0);
  } else {
    par->pool().RunShards(job);
  }

  size_t total = 0;
  size_t run_total = 0;
  std::array<std::span<const Element>, kMaxShards> runs;
  for (size_t s = 0; s < shards; ++s) {
    total += matched[s];
    runs[s] = (*pools[s]).vec();
    run_total += runs[s].size();
  }
  const size_t want = k < run_total ? k : run_total;
  out->resize(want);
  if (shards == 1 || want < kMinShardedN) {
    std::array<size_t, kMaxShards> heads{};
    flat_scan_internal::MergeRuns(runs.data(), shards, heads.data(),
                                  out->data(), want);
  } else {
    par->pool().RunShards([&](size_t j) {
      const size_t begin = want * j / shards;
      const size_t end = want * (j + 1) / shards;
      std::array<size_t, kMaxShards> heads{};
      flat_scan_internal::CoRanks(runs.data(), shards, begin, heads.data());
      flat_scan_internal::MergeRuns(runs.data(), shards, heads.data(),
                                    out->data() + begin, end - begin);
    });
  }

#ifdef TOPK_AUDIT
  // Shard/merge audit: the sharded answer must equal a serial brute
  // recount — same exact count, same (weight, id)-ordered top-k.
  {
    ScratchVec<Element> audit_pool = scratch->Borrow<Element>();
    for (size_t i = 0; i < n; ++i) {
      const Element& e = slots.ElementAt(i);
      if ((!thresholded || weights[i] >= tau) && Problem::Matches(q, e)) {
        audit_pool.push_back(e);
      }
    }
    TOPK_CHECK_EQ(total, audit_pool.size());
    SelectTopK(&audit_pool.vec(), k, scratch);
    TOPK_CHECK_EQ(out->size(), audit_pool.size());
    for (size_t i = 0; i < audit_pool.size(); ++i) {
      TOPK_CHECK_EQ((*out)[i].id, audit_pool[i].id);
    }
  }
#endif

  return total;
}

}  // namespace topk::parallel

#endif  // TOPK_PARALLEL_FLAT_SCAN_H_
