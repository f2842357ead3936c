// Hotpath-alloc sabotage: the QueryInto body below breaks the
// zero-allocation steady-state contract three ways (owning vector
// local, `new`, push_back onto a member). The ScratchVec local, the
// .vec() reference, the out-parameter, and the suppressed line must
// NOT be flagged; nor may anything in the allocating Query() compat
// overload (hot-path scoping is by function name, `*Into`).

#ifndef TOPK_CORE_HOT_H_
#define TOPK_CORE_HOT_H_

#include <vector>

#include "common/ok.h"

namespace topk {

class SabHotStructure {
 public:
  void QueryInto(int q, unsigned long k, Scratch* scratch,
                 std::vector<SabPoint>* out) const {
    out->clear();
    std::vector<SabPoint> pool;                     // FLAG: owning local
    double* slab = new double[k];                   // FLAG: new
    std::vector<int> oops;  // analyze: hotpath-alloc-ok fixture: quiet
    ScratchVec<SabPoint> borrowed = scratch->Borrow<SabPoint>();
    borrowed.push_back(SabPoint{});                 // ok: scratch-backed
    std::vector<SabPoint>& vref = borrowed.vec();
    vref.push_back(SabPoint{});                     // ok: .vec() ref
    out->push_back(SabPoint{});                     // ok: recycled out
    bad_.push_back(SabPoint{});                     // FLAG: member recv
    (void)q;
    (void)pool;
    (void)slab;
    (void)oops;
  }

  // Allocating compat overload: deliberately outside the hot set.
  std::vector<SabPoint> Query(int q, unsigned long k) const {
    std::vector<SabPoint> result;
    result.push_back(SabPoint{});
    (void)q;
    (void)k;
    return result;
  }

 private:
  mutable std::vector<SabPoint> bad_;  // analyze: posture-ok fixture
};

}  // namespace topk

#endif  // TOPK_CORE_HOT_H_
