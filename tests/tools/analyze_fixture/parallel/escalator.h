// Layering sabotage: parallel is vocabulary below core and serve (its
// only declared dependency is common), so reaching up into serve is an
// upward edge; the common include next to it must stay clean.

#ifndef TOPK_PARALLEL_ESCALATOR_H_
#define TOPK_PARALLEL_ESCALATOR_H_

#include "common/ok.h"
#include "serve/widget.h"

namespace topk::parallel {

inline int SabEscalator() { return 0; }

}  // namespace topk::parallel

#endif  // TOPK_PARALLEL_ESCALATOR_H_
