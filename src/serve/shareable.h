// Compile-time gate: which structures may be shared across QueryEngine
// worker threads?
//
// Every static structure in the repo is const-queryable with no hidden
// mutable state, so concurrent QueryInto calls on one instance are safe —
// EXCEPT the external-memory structures: even a read-only EM query
// mutates its BufferPool (LRU list, frames, hit/miss and I/O counters),
// which is deliberately single-threaded state. Those are rejected here
// at compile time rather than corrupting I/O accounting at runtime.
//
// Detection: the EM substrates carry `static constexpr bool
// kExternalMemory = true`, and the reductions export their substrate
// types (`Prioritized`, `MaxSubstrate`, `CounterStructure`), so the
// check recurses through e.g. CoreSetTopK<Problem, EmRange1dPrioritized>
// without the reductions knowing anything about external memory.
//
// Contract for NEW structures (enforced by tools/analyze.py's
// per-class posture rule and the negative tests in
// tests/core_properties_test.cc):
//   * a structure whose const query path touches mutable state must
//     either declare `static constexpr bool kExternalMemory = true`
//     (single-threaded EM state) or `static constexpr bool
//     kThreadSafeQuery = false` (any other hidden mutability, e.g. a
//     memoization cache) — both are rejected here;
//   * a reduction/wrapper template must export its substrate type
//     aliases so this check can recurse; hiding a substrate hides its
//     markers.

#ifndef TOPK_SERVE_SHAREABLE_H_
#define TOPK_SERVE_SHAREABLE_H_

#include <concepts>

#include "core/problem.h"

namespace topk::serve {

template <typename S>
consteval bool UsesExternalMemory() {
  if constexpr (requires {
                  { S::kExternalMemory } -> std::convertible_to<bool>;
                }) {
    if (S::kExternalMemory) return true;
  }
  if constexpr (requires { typename S::Prioritized; }) {
    if (UsesExternalMemory<typename S::Prioritized>()) return true;
  }
  if constexpr (requires { typename S::MaxSubstrate; }) {
    if (UsesExternalMemory<typename S::MaxSubstrate>()) return true;
  }
  if constexpr (requires { typename S::CounterStructure; }) {
    if (UsesExternalMemory<typename S::CounterStructure>()) return true;
  }
  return false;
}

// True when S (or any exported substrate) declares its const query path
// thread-unsafe via `static constexpr bool kThreadSafeQuery = false`.
template <typename S>
consteval bool DeclaresUnshareableQuery() {
  if constexpr (requires {
                  { S::kThreadSafeQuery } -> std::convertible_to<bool>;
                }) {
    if (!S::kThreadSafeQuery) return true;
  }
  if constexpr (requires { typename S::Prioritized; }) {
    if (DeclaresUnshareableQuery<typename S::Prioritized>()) return true;
  }
  if constexpr (requires { typename S::MaxSubstrate; }) {
    if (DeclaresUnshareableQuery<typename S::MaxSubstrate>()) return true;
  }
  if constexpr (requires { typename S::CounterStructure; }) {
    if (DeclaresUnshareableQuery<typename S::CounterStructure>()) return true;
  }
  return false;
}

// A top-k structure (core/problem.h) whose const queries are safe to
// issue from many threads against one shared instance.
template <typename S>
concept ShareableTopKStructure =
    ::topk::TopKStructure<S> && !UsesExternalMemory<S>() &&
    !DeclaresUnshareableQuery<S>();

}  // namespace topk::serve

#endif  // TOPK_SERVE_SHAREABLE_H_
