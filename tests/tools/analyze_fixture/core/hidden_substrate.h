// Hidden-substrate sabotage for the posture rule's alias recursion:
// SabEmish carries kExternalMemory (single-threaded query state, like
// the EM structures). SabBadWrapper stores one but neither re-exports
// it through a substrate alias nor declares its own marker, so
// serve::ShareableTopKStructure would see no marker at all and admit a
// thread-unsafe composite — that is the finding. SabGoodWrapper (alias
// export) and SabChainWrapper (export through an alias CHAIN, the way
// the concept recurses) are clean, as are the mutex member and the
// suppressed cache.

#ifndef TOPK_CORE_HIDDEN_SUBSTRATE_H_
#define TOPK_CORE_HIDDEN_SUBSTRATE_H_

#include <mutex>

#include "common/ok.h"

namespace topk {

class SabEmish {
 public:
  static constexpr bool kExternalMemory = true;
};

class SabBadWrapper {
 public:
  int Size() const { return 0; }

 private:
  SabEmish inner_;  // FLAG: marker hidden from the shareability gate
};

class SabGoodWrapper {
 public:
  using Prioritized = SabEmish;

 private:
  SabEmish inner_;  // ok: exported, the concept recurses through it
};

class SabChainWrapper {
 public:
  using Prioritized = SabGoodWrapper;

 private:
  SabGoodWrapper inner_;  // ok: exported through the alias chain
};

class SabMutexed {
 private:
  mutable std::mutex mu_;  // ok: inherently thread-safe type
};

class SabSuppressed {
 private:
  mutable int hits_ = 0;  // analyze: posture-ok fixture: documented
};

}  // namespace topk

#endif  // TOPK_CORE_HIDDEN_SUBSTRATE_H_
