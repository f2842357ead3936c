// Charge-site sabotage: mutating the issuance counters outside
// core/sink.h double-counts every internal delegation. The two bare
// mutations must be flagged; the read and the suppressed mutation must
// not be.

#ifndef TOPK_CORE_CHEATER_H_
#define TOPK_CORE_CHEATER_H_

#include "common/ok.h"

namespace topk {

struct SabStats {
  unsigned long long prioritized_queries;
  unsigned long long elements_emitted;
};

inline unsigned long long SabCheat(SabStats* stats, unsigned long n) {
  ++stats->prioritized_queries;                       // FLAG
  stats->elements_emitted += n;                       // FLAG
  const unsigned long long seen = stats->prioritized_queries;  // ok: read
  stats->elements_emitted += n;  // analyze: charge-site-ok fixture: quiet
  return seen;
}

}  // namespace topk

#endif  // TOPK_CORE_CHEATER_H_
