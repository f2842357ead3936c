// Fallible query surface for EM-backed top-k structures.
//
// An EM structure query that hits an unrecoverable device read (the
// retry layer gave up) does not abort: the BufferPool serves a poisoned
// zero-filled frame and raises its sticky io_failed flag (see
// em/buffer_pool.h). This wrapper turns that pool-level signal into a
// per-query contract: Query runs the inner structure to completion and
// returns the elements plus io_failed — when the flag is set the
// elements are NOT trustworthy and must be discarded (some page of the
// structure was read as zeroes). When the flag is clear the result is
// the exact top-k, bit-for-bit what a fault-free run returns.
//
// The pool's sticky flag is consumed at both ends of the query, so a
// failure in one query never taints the next, and poisoned frames are
// never cached — after a flagged query, simply query again (the next
// attempt re-reads the device and may succeed).

#ifndef TOPK_EM_FALLIBLE_H_
#define TOPK_EM_FALLIBLE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "core/problem.h"
#include "em/buffer_pool.h"

namespace topk::em {

template <typename E>
struct FallibleResult {
  std::vector<E> elements;
  bool io_failed = false;  // true => discard elements, retry the query
};

template <TopKStructure Inner>
class FallibleTopK {
 public:
  using Element = typename Inner::Element;
  using Predicate = typename Inner::Predicate;
  // Same single-threaded BufferPool posture as the wrapped structure.
  static constexpr bool kExternalMemory = true;

  // `inner` must be built over `pool`; both must outlive the wrapper.
  FallibleTopK(const Inner* inner, BufferPool* pool)
      : inner_(inner), pool_(pool) {
    TOPK_CHECK(inner_ != nullptr);
    TOPK_CHECK(pool_ != nullptr);
  }

  size_t size() const { return inner_->size(); }

  FallibleResult<Element> Query(const Predicate& q, size_t k,
                                QueryStats* stats = nullptr) const {
    pool_->ConsumeIoFailure();  // shed stale state from other callers
    FallibleResult<Element> result;
    result.elements = topk::Query(*inner_, q, k, stats);
    result.io_failed = pool_->ConsumeIoFailure();
    return result;
  }

 private:
  const Inner* inner_;
  BufferPool* pool_;
};

}  // namespace topk::em

#endif  // TOPK_EM_FALLIBLE_H_
