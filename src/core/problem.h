// The Problem trait and the structure-contract concept suite: what a
// reporting problem and its structures must provide to plug into the
// general reductions.
//
// A Problem is a struct with:
//
//   using Element   = ...;   // O(1)-word element; must have public fields
//                            //   double weight;  uint64_t id;
//   using Predicate = ...;   // a query predicate q in the family Q
//   static bool Matches(const Predicate& q, const Element& e);
//   static constexpr double kLambda = ...;
//
// kLambda is the polynomial-boundedness exponent of Theorem 1: over all
// predicates q in Q, at most n^kLambda distinct outcomes q(D) exist for
// any n-element input D. (E.g. 1D range reporting: every outcome is an
// index interval of the sorted order => at most n^2 outcomes, kLambda = 2.)
//
// The concepts below are the machine-checked half of each contract: they
// pin the *signatures* at every reduction entry point, so substrate drift
// fails at instantiation with the concept's name in the error. The
// *semantics* half of each contract (the "must" comments next to each
// concept) cannot be expressed in the type system; it is verified at
// query time by the audit wrappers in src/audit/ (enable with
// -DTOPK_AUDIT=ON) and by the brute-force test sweeps.

#ifndef TOPK_CORE_PROBLEM_H_
#define TOPK_CORE_PROBLEM_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/scratch.h"
#include "common/stats.h"

namespace topk {

namespace trace {
class Tracer;
}  // namespace trace
namespace parallel {
class Context;
}  // namespace parallel

template <typename P>
concept ProblemDef = requires(const typename P::Predicate& q,
                              const typename P::Element& e) {
  { P::Matches(q, e) } -> std::convertible_to<bool>;
  { P::kLambda } -> std::convertible_to<double>;
  { e.weight } -> std::convertible_to<double>;
  { e.id } -> std::convertible_to<uint64_t>;
};

// A sink type used only to validate structure signatures in concepts.
template <typename E>
struct AnySink {
  bool operator()(const E&) const { return true; }
};

// PRIORITIZED structure contract (Section 2 of the paper).
//
// Signature (checked here):
//   size_t size() const;
//   template <typename Emit>   // Emit: bool(const Element&); false = stop
//   void QueryPrioritized(const Predicate& q, double tau, Emit&& emit,
//                         QueryStats* stats) const;
//   static double QueryCostBound(size_t n, size_t block_size);  // Q_pri(n)
//
// Semantics (audit::CheckedPrioritized verifies at query time):
//   * every element e with Matches(q, e) and w(e) >= tau is emitted,
//     each EXACTLY once, in ANY order (reductions must not assume one);
//   * emission STOPS as soon as emit returns false (the paper's cost
//     monitoring device) — no further emit calls are allowed;
//   * cost is output-sensitive: Q_pri(n) + O(t) work for t emitted
//     elements, charged to *stats monotonically (counters only grow).
template <typename S, typename P>
concept PrioritizedStructure =
    ProblemDef<P> &&
    requires(const S& s, const typename P::Predicate& q, double tau,
             AnySink<typename P::Element> sink, QueryStats* stats) {
      { s.size() } -> std::convertible_to<size_t>;
      s.QueryPrioritized(q, tau, sink, stats);
      { S::QueryCostBound(size_t{1}, size_t{64}) } ->
          std::convertible_to<double>;
    };

// MAX structure contract (the Theorem 2 substrate).
//
// Signature (checked here):
//   size_t size() const;
//   std::optional<Element> QueryMax(const Predicate& q,
//                                   QueryStats* stats) const;
//   static double QueryCostBound(size_t n, size_t block_size);  // Q_max(n)
//
// Semantics (audit::CheckedMax verifies at query time):
//   * returns THE heaviest element of q(D) under the (weight, id) total
//     order, or nullopt iff q(D) is empty — never an arbitrary matching
//     element;
//   * cost Q_max(n), charged to *stats monotonically.
template <typename S, typename P>
concept MaxStructure =
    ProblemDef<P> &&
    requires(const S& s, const typename P::Predicate& q, QueryStats* stats) {
      { s.size() } -> std::convertible_to<size_t>;
      { s.QueryMax(q, stats) } ->
          std::convertible_to<std::optional<typename P::Element>>;
      { S::QueryCostBound(size_t{1}, size_t{64}) } ->
          std::convertible_to<double>;
    };

// DYNAMIC structure contract (needed by SampledTopK updates and the
// logarithmic method).
//
// Semantics: Insert makes e visible to every subsequent query; Erase
// requires e to be present (by id) and removes exactly it. Ids are the
// identity — weights of distinct elements may collide.
template <typename S, typename P>
concept DynamicStructure =
    requires(S& s, const typename P::Element& e) {
      s.Insert(e);
      s.Erase(e);
    };

// COUNTER structure contract (the Section 2 counting reduction).
//
// Semantics: Count(q, tau, stats) returns EXACTLY
// |{e in q(D) : w(e) >= tau}| (an exact counter, c = 1), monotone in
// tau (lower tau never shrinks the count). CountingTopK fetches at the
// first threshold whose count reaches k, so an overcounting
// (c-approximate) counter would stop early and return fewer than k
// elements; supporting c > 1 needs the [k, c*k] search termination the
// paper describes, which is not implemented.
template <typename C, typename P>
concept CounterStructure =
    ProblemDef<P> &&
    requires(const C& c, const typename P::Predicate& q, double tau,
             QueryStats* stats) {
      { c.size() } -> std::convertible_to<size_t>;
      { c.Count(q, tau, stats) } -> std::convertible_to<size_t>;
    };

// TOP-K structure contract (what the reductions produce and the serving
// layer consumes; see serve/shareable.h for the thread-shareable
// refinement). There is exactly one top-k entry point:
//
//   void QueryInto(const Predicate& q, size_t k, Scratch* scratch,
//                  std::vector<Element>* out, QueryStats* stats,
//                  trace::Tracer* tracer, parallel::Context* par) const;
//
// stats, tracer and par are nullable (null = not charged / not traced /
// serial). Every temporary pool is borrowed from `scratch`, so a warm
// arena and a warm *out serve the query with zero heap allocations.
//
// Semantics: *out is cleared, then receives the min(k, |q(D)|) heaviest
// elements of q(D) sorted heaviest-first under (weight, id) — callers
// (tests, the serving layer, TopKToPrioritized) rely on exact,
// descending results.
template <typename S>
concept TopKStructure =
    requires(const S& s, const typename S::Predicate& q, Scratch* scratch,
             std::vector<typename S::Element>* out, QueryStats* stats,
             trace::Tracer* tracer, parallel::Context* par) {
      { s.size() } -> std::convertible_to<size_t>;
      s.QueryInto(q, size_t{1}, scratch, out, stats, tracer, par);
    };

// The one convenience form: owns a throwaway Scratch and returns the
// answer by value (so it may allocate). For tests, benches, examples
// and one-off callers; serving paths call QueryInto with a warm arena.
template <TopKStructure S>
std::vector<typename S::Element> Query(const S& s,
                                       const typename S::Predicate& q,
                                       size_t k, QueryStats* stats = nullptr,
                                       trace::Tracer* tracer = nullptr) {
  std::vector<typename S::Element> out;
  Scratch scratch;
  s.QueryInto(q, k, &scratch, &out, stats, tracer, nullptr);
  return out;
}

// FACTORY contract (core/factory.h): builds a structure of type S from a
// vector of elements. The reductions sample sets themselves (core-set
// levels, Theorem 2's R_i) and construct inner structures through one of
// these; environments needing extra context (EM structures allocating
// through a BufferPool) pass a capturing callable.
template <typename F, typename S, typename E>
concept StructureFactory =
    requires(const F& f, std::vector<E> data) {
      { f(std::move(data)) } -> std::same_as<S>;
    };

}  // namespace topk

#endif  // TOPK_CORE_PROBLEM_H_
