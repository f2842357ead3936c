// Guard and namespace sabotage: `#pragma once` instead of the path-
// derived TOPK_..._H_ guard, and no `namespace topk`. The mentions in
// this comment must not count for either rule.

#pragma once

namespace sab {

inline int SabUnguarded() { return 0; }

}  // namespace sab
