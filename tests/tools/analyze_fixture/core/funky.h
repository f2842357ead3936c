// Analyzer fixture (analyzed, never compiled): the function rule
// must flag the bare std::function member below — this file sits under
// a core/ directory, where owning type-erasure is banned — and honor
// the one-line suppression.

#ifndef TOPK_CORE_FUNKY_H_
#define TOPK_CORE_FUNKY_H_

#include <functional>

namespace topk {

struct BadCallback {
  std::function<void(int)> on_emit;  // may heap-allocate per construction
};

struct JustifiedCallback {
  std::function<void(int)> hook;  // analyze: function-ok fixture suppression
};

}  // namespace topk

#endif  // TOPK_CORE_FUNKY_H_
