// Layering sabotage: federate is the TOP of the serving stack — only
// tests and benches may include it. serve reaching up into federate
// inverts the coordinator-over-engine design; analyze.py must flag it.

#ifndef TOPK_SERVE_USES_FEDERATE_H_
#define TOPK_SERVE_USES_FEDERATE_H_

#include "federate/fed.h"

namespace topk::serve {

inline int SabUsesFederate() { return 0; }

}  // namespace topk::serve

#endif  // TOPK_SERVE_USES_FEDERATE_H_
