// Analyzer fixture (analyzed, never compiled): the tracer rule
// must flag the bare `tracer->` dereference below, and honor the
// one-line suppression on the guarded use.

#ifndef TOPK_CORE_TRACY_H_
#define TOPK_CORE_TRACY_H_

namespace topk {

template <typename Tracer>
inline void BadDeref(Tracer* tracer) {
  tracer->RecordInstant("boom");  // null when tracing is off
}

template <typename Tracer>
inline void GuardedDeref(Tracer* query_tracer) {
  if (query_tracer != nullptr) {
    query_tracer->Clear();  // analyze: tracer-ok fixture suppression
  }
}

}  // namespace topk

#endif  // TOPK_CORE_TRACY_H_
