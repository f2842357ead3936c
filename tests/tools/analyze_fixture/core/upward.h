// Layering sabotage: core sits below serve in the module DAG, so the
// first include is an upward edge; the second names a file that does
// not exist under the root (a typo'd path clang would catch only in a
// TU that includes this header).

#ifndef TOPK_CORE_UPWARD_H_
#define TOPK_CORE_UPWARD_H_

#include "core/nonexistent.h"
#include "serve/widget.h"

namespace topk {

inline int SabUpward() { return 0; }

}  // namespace topk

#endif  // TOPK_CORE_UPWARD_H_
