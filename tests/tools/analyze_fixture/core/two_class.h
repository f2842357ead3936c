// The two-class posture hole: the kThreadSafeQuery marker on
// SabSafeOuter says nothing about SabCacheyInner's unmarked mutable
// query state, which serve::ShareableTopKStructure (a per-class check)
// would happily share across worker threads. A file-scoped `mutable`
// rule would let the sibling's marker cover the whole file;
// tools/analyze.py's posture rule is per class and reports the
// [posture] finding (pinned by tests/tools/analyze_selftest.cmake).
//
// This header passes the per-file rules on purpose (guard, namespace,
// no bare assert): the point is that no per-line rule has a violation
// to see. Only the per-class posture rule can.

#ifndef TOPK_CORE_TWO_CLASS_H_
#define TOPK_CORE_TWO_CLASS_H_

#include <cstdint>

namespace topk {

class SabCacheyInner {
 public:
  uint64_t Lookup(uint64_t key) const {
    last_key_ = key;  // hidden query-time mutation under const
    return last_key_;
  }

 private:
  mutable uint64_t last_key_ = 0;
};

class SabSafeOuter {
 public:
  static constexpr bool kThreadSafeQuery = false;

  uint64_t Probe(uint64_t key) const { return inner_.Lookup(key); }

 private:
  SabCacheyInner inner_;
};

}  // namespace topk

#endif  // TOPK_CORE_TWO_CLASS_H_
