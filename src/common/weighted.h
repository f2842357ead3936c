// Weight ordering shared by every structure in the library.
//
// The paper assumes all weights are distinct (the standard top-k
// assumption that removes tie-breaking ambiguity). We *realize* the
// assumption instead of requiring it: every element carries a 64-bit id,
// and all comparisons are on the lexicographic key (weight, id), which is
// a strict total order whenever ids are unique.
//
// A problem's Element type must expose two public fields:
//   double   weight;
//   uint64_t id;
//
// Precondition, library-wide: ids are unique among the live elements of
// a structure — every build input, and every Insert of an id not already
// live. Ids are element identity: the total order, Erase-by-id and
// federation's shard placement all assume it. Structures do not pay to
// check it on their own paths. It is checked where ids enter:
//   * em::DurableStore aborts on Insert of a live id, on Erase of a dead
//     one, and on a duplicate id in a recovered checkpoint — the doors
//     for outside ids in every build;
//   * under -DTOPK_AUDIT=ON, audit::CheckedPrioritized and
//     audit::CheckedMax abort on a duplicate id at construction and on
//     Insert, against the mirror they already keep.

#ifndef TOPK_COMMON_WEIGHTED_H_
#define TOPK_COMMON_WEIGHTED_H_

#include <cstdint>

namespace topk {

// The strict total order on weights. a "heavier than" b.
template <typename E>
inline bool HeavierThan(const E& a, const E& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  return a.id > b.id;
}

// Comparator object for sorting in descending weight order (heaviest
// first) — the order every top-k result is returned in.
struct ByWeightDesc {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    return HeavierThan(a, b);
  }
};

// True when w(e) >= tau. A prioritized query's threshold tau is a plain
// weight; elements tied with tau on weight are included regardless of id
// (the paper's distinct-weight world has no such ties; including them is
// the conservative choice and never drops a qualifying element).
template <typename E>
inline bool MeetsThreshold(const E& e, double tau) {
  return e.weight >= tau;
}

}  // namespace topk

#endif  // TOPK_COMMON_WEIGHTED_H_
