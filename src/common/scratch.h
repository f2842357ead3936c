// Reusable scratch memory for the steady-state query path.
//
// The reductions are I/O-optimal but, naively implemented, every query
// heap-allocates fresh candidate pools (MonitoredQuery collections,
// k-selection buffers, heap-selection frontiers). A Scratch owns
// growable, NEVER-shrinking pools of element vectors; a query borrows a
// pool via Borrow<E>(), fills it, and the ScratchVec RAII handle
// returns the buffer — capacity intact — when it goes out of scope.
// After a warm-up query has grown every pool to its high-water mark,
// subsequent queries over the same structure perform zero heap
// allocations (asserted by tests/alloc_regression_test.cc through a
// warm serve::QueryEngine for all four reductions and the scan and
// heap-selection structures).
//
// Ownership contract (see DESIGN.md "scratch memory contract"):
//   * a Scratch is owned by exactly one thread at a time — one per
//     QueryEngine worker, or one on the stack of a topk::Query
//     convenience call. It is NOT thread-safe; never share one across
//     concurrent queries.
//   * every ScratchVec must be destroyed (or moved into one that is)
//     before its Scratch: the handle holds a pointer back to the owner.
//     ~Scratch aborts if handles are still outstanding, turning a
//     would-be dangling pointer into a loud failure.
//   * pools never shrink: the arena's capacity is the high-water mark
//     of any query served so far. Callers that must bound memory build
//     a fresh Scratch (topk::Query does exactly that).
//
// Under -DTOPK_AUDIT the per-pool borrow ledger is additionally
// checked on every return (a Return without a matching Borrow — the
// double-return of a stolen buffer — aborts), mirroring the
// audit::Checked* query-contract wrappers.

#ifndef TOPK_COMMON_SCRATCH_H_
#define TOPK_COMMON_SCRATCH_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"

namespace topk {

class Scratch;

namespace scratch_internal {

// Dense per-element-type indices, assigned on first use program-wide.
// A Scratch keeps its pools in a flat vector indexed by these, so
// Borrow<E>() is one array lookup — no map, no RTTI, no allocation
// once the slot exists.
inline size_t NextTypeIndex() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

template <typename E>
size_t TypeIndex() {
  static const size_t index = NextTypeIndex();
  return index;
}

}  // namespace scratch_internal

// RAII handle on a pool borrowed from a Scratch: a thin wrapper around
// a std::vector<E> whose buffer is returned to the owner (cleared,
// capacity kept) on destruction. Move-only; a moved-from handle owns
// nothing and returns nothing.
template <typename E>
class ScratchVec {
 public:
  ScratchVec(ScratchVec&& o) noexcept
      : owner_(std::exchange(o.owner_, nullptr)), vec_(std::move(o.vec_)) {}
  ScratchVec& operator=(ScratchVec&& o) noexcept {
    if (this != &o) {
      Release();
      owner_ = std::exchange(o.owner_, nullptr);
      vec_ = std::move(o.vec_);
    }
    return *this;
  }
  ScratchVec(const ScratchVec&) = delete;
  ScratchVec& operator=(const ScratchVec&) = delete;
  ~ScratchVec() { Release(); }

  // The underlying vector, for callers that need the real type
  // (std::sort, SelectTopK, assign into a result slot).
  std::vector<E>& vec() { return vec_; }
  const std::vector<E>& vec() const { return vec_; }

  // Vector-like conveniences for the common hot-path operations.
  size_t size() const { return vec_.size(); }
  bool empty() const { return vec_.empty(); }
  void clear() { vec_.clear(); }
  void reserve(size_t n) { vec_.reserve(n); }
  void resize(size_t n) { vec_.resize(n); }
  void push_back(const E& e) { vec_.push_back(e); }
  E& operator[](size_t i) { return vec_[i]; }
  const E& operator[](size_t i) const { return vec_[i]; }
  typename std::vector<E>::iterator begin() { return vec_.begin(); }
  typename std::vector<E>::iterator end() { return vec_.end(); }
  typename std::vector<E>::const_iterator begin() const {
    return vec_.begin();
  }
  typename std::vector<E>::const_iterator end() const { return vec_.end(); }

 private:
  friend class Scratch;
  ScratchVec(Scratch* owner, std::vector<E>&& vec)
      : owner_(owner), vec_(std::move(vec)) {}

  inline void Release();

  Scratch* owner_;  // null after move-out
  std::vector<E> vec_;
};

class Scratch {
 public:
  Scratch() = default;
  // Handles hold a pointer back to their owner: moving a Scratch would
  // strand them, so it is pinned.
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  ~Scratch() {
    // A live handle at this point would return its buffer into freed
    // memory; abort before the dangle instead (leak check).
    TOPK_CHECK_EQ(outstanding_, size_t{0});
  }

  // Borrows a pool of E. The buffer is empty but keeps the capacity it
  // grew to on earlier borrows; allocation happens only the first time
  // a given high-water mark is reached.
  template <typename E>
  ScratchVec<E> Borrow() {
    Pool<E>* pool = PoolFor<E>();
    ++outstanding_;
#ifdef TOPK_AUDIT
    ++pool->borrowed;
#endif
    if (pool->free.empty()) return ScratchVec<E>(this, std::vector<E>());
    std::vector<E> v = std::move(pool->free.back());
    pool->free.pop_back();
    return ScratchVec<E>(this, std::move(v));
  }

  // Handles currently borrowed and not yet returned (0 between queries).
  size_t outstanding() const { return outstanding_; }
  // Distinct element-type pools this arena has served (diagnostics).
  size_t num_pools() const {
    size_t n = 0;
    for (const std::unique_ptr<PoolBase>& p : pools_) n += p != nullptr;
    return n;
  }
  // Buffers parked in the free list of E's pool (diagnostics/tests).
  template <typename E>
  size_t free_count() const {
    const size_t index = scratch_internal::TypeIndex<E>();
    if (index >= pools_.size() || pools_[index] == nullptr) return 0;
    return static_cast<const Pool<E>*>(pools_[index].get())->free.size();
  }

 private:
  template <typename E>
  friend class ScratchVec;

  struct PoolBase {
    virtual ~PoolBase() = default;
#ifdef TOPK_AUDIT
    size_t borrowed = 0;  // audit ledger: borrows minus returns
#endif
  };
  template <typename E>
  struct Pool : PoolBase {
    std::vector<std::vector<E>> free;
  };

  template <typename E>
  Pool<E>* PoolFor() {
    const size_t index = scratch_internal::TypeIndex<E>();
    if (index >= pools_.size()) pools_.resize(index + 1);
    if (pools_[index] == nullptr) {
      pools_[index] = std::make_unique<Pool<E>>();
    }
    return static_cast<Pool<E>*>(pools_[index].get());
  }

  template <typename E>
  void Return(std::vector<E>&& v) {
    // The pool slot must exist: Return only ever follows a Borrow.
    Pool<E>* pool =
        static_cast<Pool<E>*>(pools_[scratch_internal::TypeIndex<E>()].get());
#ifdef TOPK_AUDIT
    // Double-return check: more returns than borrows means a buffer was
    // handed back twice (e.g. through a use-after-move of the handle).
    TOPK_CHECK(pool->borrowed > 0);
    --pool->borrowed;
#endif
    TOPK_CHECK(outstanding_ > 0);
    --outstanding_;
    v.clear();  // destroy elements, keep capacity
    pool->free.push_back(std::move(v));
  }

  std::vector<std::unique_ptr<PoolBase>> pools_;
  size_t outstanding_ = 0;
};

template <typename E>
void ScratchVec<E>::Release() {
  if (owner_ != nullptr) {
    owner_->Return<E>(std::move(vec_));
    owner_ = nullptr;
  }
}

}  // namespace topk

#endif  // TOPK_COMMON_SCRATCH_H_
