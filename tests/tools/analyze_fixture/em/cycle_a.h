// Include-cycle sabotage, half 1: same-module includes are layering-
// legal, but the a -> b -> a cycle must be flagged once.

#ifndef TOPK_EM_CYCLE_A_H_
#define TOPK_EM_CYCLE_A_H_

#include "em/cycle_b.h"

namespace topk {

inline int SabCycleA() { return 0; }

}  // namespace topk

#endif  // TOPK_EM_CYCLE_A_H_
