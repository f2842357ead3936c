// Sharded flat scan: the parallel kernel behind every degenerate
// monitored fetch.
//
// When a reduction issues MonitoredQuery with budget > n (Theorem 1's
// k >= n/2 full scan and its large-k fallback fetches, TopFChain level
// walks at degenerate f, Theorem 2's terminal scan, CountingTopK's
// final tally, BinarySearchTopK's unbudgeted fetch), the budget is
// unreachable: the call is exactly "count the tau-qualifying matches
// and keep the k heaviest". That computation is embarrassingly
// parallel, and FlatScanTopKInto runs it sharded in two regions:
//
//   shard -> sorted local run | co-ranked split -> sharded merge.
//
// Region 1: each shard scans a contiguous slice of a FlatMirror (an SoA
// copy of the element set: the weights live in their own contiguous
// array so the tau prefilter is a branchless compare-and-compress over
// doubles — the measured SIMD-friendly layout; see EXPERIMENTS.md E27)
// into a per-shard pool pruned with SelectTopKUnordered, then finishes
// on its own thread with SelectTopK: the pool becomes a sorted run
// holding that shard's top-min(k, |pool|), heaviest first (the E24
// strategy rule applies per run).
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
// Accounting: this kernel charges NOTHING. The calling reduction
// charges the issuance through ChargeFlatScan (core/sink.h — the single
// charge site) after the merge, under one "flat_scan" span opened on
// the calling thread, so span self-costs still telescope to QueryStats
// totals and helpers never touch stats or tracers.
//
// Scratch: all shard pools are borrowed from the QUERY's Scratch by the
// calling thread before the first region; helpers only ever touch the
// borrowed vectors' contents, never arena bookkeeping. The merge writes
// into *out after one resize, so a warm output buffer never allocates.

#ifndef TOPK_PARALLEL_FLAT_SCAN_H_
#define TOPK_PARALLEL_FLAT_SCAN_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <unordered_map>
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

// Structure-of-arrays copy of an element set for the sharded scan:
// elements in flat order plus a parallel contiguous weight array (the
// vectorizable tau prefilter reads ONLY this). Reductions build one at
// construction (before moving the data into their substrate) and, for
// dynamic structures, maintain it incrementally: Add appends, Remove is
// a swap-remove through a lazily built id -> slot index (updates are
// not the zero-alloc path).
template <typename E>
class FlatMirror {
 public:
  FlatMirror() = default;
  explicit FlatMirror(const std::vector<E>& data) {
    data_.reserve(data.size());
    weights_.reserve(data.size());
    for (const E& e : data) {
      data_.push_back(e);
      weights_.push_back(e.weight);
    }
  }

  size_t size() const { return data_.size(); }
  const E* elements() const { return data_.data(); }
  const double* weights() const { return weights_.data(); }

  void Add(const E& e) {
    if (indexed_) index_[e.id] = data_.size();
    data_.push_back(e);
    weights_.push_back(e.weight);
  }

  // Removes the element with this id (which must be present).
  void Remove(uint64_t id) {
    EnsureIndex();
    auto it = index_.find(id);
    TOPK_CHECK(it != index_.end());
    const size_t slot = it->second;
    index_.erase(it);
    const size_t last = data_.size() - 1;
    if (slot != last) {
      data_[slot] = data_[last];
      weights_[slot] = weights_[last];
      index_[data_[slot].id] = slot;
    }
    data_.pop_back();
    weights_.pop_back();
  }

 private:
  void EnsureIndex() {
    if (indexed_) return;
    index_.reserve(data_.size());
    for (size_t i = 0; i < data_.size(); ++i) index_[data_[i].id] = i;
    indexed_ = true;
  }

  std::vector<E> data_;
  std::vector<double> weights_;
  std::unordered_map<uint64_t, size_t> index_;  // built on first Remove
  bool indexed_ = false;
};

// True when a monitored fetch with this budget over n flat elements
// should run through the sharded kernel: the budget must be
// unreachable (budget > n, i.e. the fetch is a degenerate full scan —
// that is what makes the exact-count substitution lossless), a
// multi-shard context must be present, and the scan must be big enough
// to amortize the barrier.
inline bool ShouldShard(Context* par, size_t n, size_t budget) {
  return par != nullptr && par->shards() > 1 && budget > n &&
         n >= kMinShardedN;
}

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

// Scans `flat` for elements matching `q` with weight >= tau, writes the
// min(k, matched) heaviest into *out sorted heaviest-first, and returns
// the EXACT match count. Runs sharded across par's workers when
// profitable (par may be null: serial). Charges nothing — see the file
// comment.
template <typename Problem>
size_t FlatScanTopKInto(const FlatMirror<typename Problem::Element>& flat,
                        const typename Problem::Predicate& q, double tau,
                        size_t k, Context* par, Scratch* scratch,
                        std::vector<typename Problem::Element>* out) {
  using Element = typename Problem::Element;
  const size_t n = flat.size();
  const Element* const elems = flat.elements();
  const double* const weights = flat.weights();
  const bool thresholded = tau != -std::numeric_limits<double>::infinity();
  // One prune batch per kBlock elements keeps the idx buffer L1-sized.
  constexpr size_t kBlock = 512;

  size_t shards = 1;
  if (par != nullptr && par->shards() > 1 && n >= kMinShardedN) {
    shards = par->shards() < kMaxShards ? par->shards() : kMaxShards;
  }

  std::array<std::optional<ScratchVec<Element>>, kMaxShards> pools;
  std::array<std::optional<ScratchVec<uint32_t>>, kMaxShards> idxs;
  std::array<size_t, kMaxShards> matched{};
  for (size_t s = 0; s < shards; ++s) {
    pools[s].emplace(scratch->Borrow<Element>());
    idxs[s].emplace(scratch->Borrow<uint32_t>());
    (*idxs[s]).resize(kBlock);
  }

  // Per-shard pools are pruned back to k whenever they reach this, and
  // the weakest survivor then prefilters further insertions. Saturates:
  // for k > SIZE_MAX / 4 the pool is never pruned (4 * k would wrap).
  const size_t cap = k > std::numeric_limits<size_t>::max() / 4
                         ? std::numeric_limits<size_t>::max()
                         : std::max(4 * k, size_t{256});

  auto job = [&](size_t s) {
    const size_t lo = n * s / shards;
    const size_t hi = n * (s + 1) / shards;
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
    if (!thresholded) {
      for (size_t i = lo; i < hi; ++i) {
        if (Problem::Matches(q, elems[i])) consider(elems[i]);
      }
    } else {
      // Branchless compare-and-compress over the contiguous weight
      // array (the SoA tau prefilter), then the predicate only runs on
      // survivors. Blocked so idx stays cache-resident.
      for (size_t base = lo; base < hi; base += kBlock) {
        const size_t end = base + kBlock < hi ? base + kBlock : hi;
        size_t m = 0;
        for (size_t i = base; i < end; ++i) {
          idx[m] = static_cast<uint32_t>(i);
          m += static_cast<size_t>(weights[i] >= tau);
        }
        for (size_t j = 0; j < m; ++j) {
          const Element& e = elems[idx[j]];
          if (Problem::Matches(q, e)) consider(e);
        }
      }
    }
    matched[s] = count;
    SelectTopK(&pool, k);  // the shard's sorted local run
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
      if ((!thresholded || weights[i] >= tau) &&
          Problem::Matches(q, elems[i])) {
        audit_pool.push_back(elems[i]);
      }
    }
    TOPK_CHECK_EQ(total, audit_pool.size());
    SelectTopK(&audit_pool, k);
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
