// Include-cycle sabotage, half 2 (see cycle_a.h).

#ifndef TOPK_EM_CYCLE_B_H_
#define TOPK_EM_CYCLE_B_H_

#include "em/cycle_a.h"

namespace topk {

inline int SabCycleB() { return 0; }

}  // namespace topk

#endif  // TOPK_EM_CYCLE_B_H_
