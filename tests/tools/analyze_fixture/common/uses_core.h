// Layering sabotage: common is the bottom layer and may not include
// core. analyze.py must flag the include below as an upward edge.

#ifndef TOPK_COMMON_USES_CORE_H_
#define TOPK_COMMON_USES_CORE_H_

#include "core/hot.h"

namespace topk {

inline int SabUsesCore() { return 0; }

}  // namespace topk

#endif  // TOPK_COMMON_USES_CORE_H_
