// Per-query structured tracing: WHERE a query's cost went, not just how
// much it was.
//
// QueryStats (common/stats.h) answers "how many I/Os / emissions did
// this query charge in total"; the paper's analysis, though, is about
// attribution — which core-set level answered a Theorem 1 query, how
// many rounds Lemma 3's protocol burned, which monitored prioritized
// query issued which device reads. A Tracer records exactly that as a
// bounded sequence of events:
//
//   * SPANS — RAII-nested intervals (trace::Span) naming a phase of a
//     query ("monitored_query", "thm2_round", "request", ...), each
//     carrying up to kMaxArgs named integer arguments;
//   * INSTANTS — point events ("fallback");
//   * COUNTERS — trace::Count(tracer, "em_read", 1) accumulates a named
//     argument on the innermost open span, which is how the EM
//     BufferPool attributes device I/O to whatever phase pinned the
//     page.
//
// Cost-attribution contract: a span opened with a QueryStats* snapshots
// the counters and, on close, records its SELF counts — the growth of
// each QueryStats field during the span minus the growth inside child
// spans tracking the same QueryStats object — as arguments named
// exactly like the fields. Self counts telescope: summed over every
// span of a query they reproduce the query's QueryStats totals EXACTLY
// (asserted by tests/tools/trace_roundtrip.py against a live engine).
//
// Overhead contract (mirrors the QueryStats* convention): every entry
// point takes a nullable Tracer*; the disabled path is one pointer
// comparison per call site and the enabled path never allocates —
// events land in a buffer preallocated at construction (when it fills,
// new events are dropped and counted, never reallocated) and open
// spans live in a fixed-depth stack. E23 (bench_trace) measures both
// paths.
//
// Thread-safety: a Tracer is single-owner mutable state, exactly like a
// QueryStats tally — one per worker thread (serve::QueryEngine owns
// num_threads + 1: one per worker plus a coordinator), merged only
// after a barrier. Never share one across concurrent queries.
//
// Dereference discipline: outside src/trace/, never dereference a
// Tracer* directly — go through trace::Span / trace::Count /
// trace::Instant, which tolerate null (tools/analyze.py's `tracer` rule
// enforces this).

#ifndef TOPK_TRACE_TRACER_H_
#define TOPK_TRACE_TRACER_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/stats.h"

namespace topk::trace {

class Tracer {
 public:
  // Room for every QueryStats field (8) plus user arguments (budgets,
  // levels, verdicts, EM counters) on one span.
  static constexpr size_t kMaxArgs = 16;
  // Spans nest along a single query path (request > exec > reduction >
  // chain levels > monitored query); depth stays in single digits.
  static constexpr size_t kMaxDepth = 32;

  enum class EventKind : uint8_t { kSpan, kInstant };

  // One recorded event. `name` and the argument names are required to
  // be string literals (or otherwise outlive the tracer): events store
  // the pointers, never copies.
  struct Event {
    const char* name = nullptr;
    uint64_t id = 0;        // unique per tracer, in begin order
    uint64_t parent = 0;    // id of the enclosing span; 0 = top level
    uint64_t start_ns = 0;  // relative to the tracer's construction
    uint64_t dur_ns = 0;    // 0 for instants
    EventKind kind = EventKind::kSpan;
    size_t num_args = 0;
    std::array<const char*, kMaxArgs> arg_names{};
    std::array<uint64_t, kMaxArgs> arg_values{};
  };

  explicit Tracer(size_t capacity) : capacity_(capacity) {
    TOPK_CHECK(capacity_ >= 1);
    buffer_.reserve(capacity_);
    epoch_ = Clock::now();
  }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // --- recording (prefer the Span RAII + free helpers below) ----------
  //
  // The recording bodies are noinline: they only execute when tracing
  // is enabled (a call is noise next to their two clock reads), and
  // inlining them at every instrumented call site bloats the caller
  // past the compiler's inlining budget — measurably de-inlining hot
  // query loops even when tracing is off.

  // Opens a span; returns its id (pass back to EndSpan — enforces LIFO).
  // `stats` may be null (no cost attribution); when non-null it must
  // stay valid and only grow until the span closes.
  __attribute__((noinline)) uint64_t BeginSpan(
      const char* name, const QueryStats* stats = nullptr) {
    TOPK_CHECK(depth_ < kMaxDepth);
    OpenSpan& s = open_[depth_];
    ++depth_;
    s.name = name;
    s.id = next_id_++;
    s.parent = depth_ >= 2 ? open_[depth_ - 2].id : 0;
    s.start_ns = NowNs();
    s.stats = stats;
    if (stats != nullptr) s.at_open = *stats;
    s.child_sum = QueryStats();
    s.num_args = 0;
    return s.id;
  }

  __attribute__((noinline)) void EndSpan(uint64_t id) {
    TOPK_CHECK(depth_ > 0);
    OpenSpan& s = open_[depth_ - 1];
    TOPK_CHECK_EQ(s.id, id);  // spans close strictly LIFO
    const uint64_t end_ns = NowNs();
    if (s.stats != nullptr) {
      // Self = inclusive growth minus the children's inclusive growth;
      // nonzero self counts become arguments named like the fields.
      QueryStats::ForEachField([&s](const char* field, auto member) {
        const uint64_t inclusive = s.stats->*member - s.at_open.*member;
        const uint64_t self = inclusive - s.child_sum.*member;
        if (self != 0) AddArg(&s, field, self);
      });
      if (depth_ >= 2 && open_[depth_ - 2].stats == s.stats) {
        OpenSpan& parent = open_[depth_ - 2];
        QueryStats::ForEachField([&s, &parent](const char*, auto member) {
          parent.child_sum.*member += s.stats->*member - s.at_open.*member;
        });
      }
    }
    Event e;
    e.name = s.name;
    e.id = s.id;
    e.parent = s.parent;
    e.start_ns = s.start_ns;
    e.dur_ns = end_ns - s.start_ns;
    e.kind = EventKind::kSpan;
    e.num_args = s.num_args;
    e.arg_names = s.arg_names;
    e.arg_values = s.arg_values;
    Push(e);
    --depth_;
  }

  __attribute__((noinline)) void RecordInstant(const char* name) {
    Event e;
    e.name = name;
    e.id = next_id_++;
    e.parent = depth_ > 0 ? open_[depth_ - 1].id : 0;
    e.start_ns = NowNs();
    e.kind = EventKind::kInstant;
    Push(e);
  }

  // Accumulates `delta` into the argument `name` of the innermost open
  // span (same-name arguments merge by addition, compared by content so
  // literals from different translation units unify). With no open span
  // the count has nothing to attach to and is dropped by design.
  __attribute__((noinline)) void CountInCurrent(const char* name,
                                                uint64_t delta) {
    if (depth_ == 0) return;
    AddArg(&open_[depth_ - 1], name, delta);
  }

  // --- inspection -----------------------------------------------------

  // Recorded events in close order for spans (a child closes before its
  // parent), record order for instants.
  const std::vector<Event>& events() const { return buffer_; }
  size_t capacity() const { return capacity_; }
  // Events discarded because the buffer was full.
  uint64_t dropped() const { return dropped_; }
  // Spans currently open (nonzero only mid-query).
  size_t open_depth() const { return depth_; }

  // Drops recorded events (open spans survive; the epoch is unchanged
  // so timestamps stay comparable across a Clear).
  void Clear() {
    buffer_.clear();
    dropped_ = 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct OpenSpan {
    const char* name = nullptr;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t start_ns = 0;
    const QueryStats* stats = nullptr;
    QueryStats at_open;    // *stats when the span opened
    QueryStats child_sum;  // closed children's inclusive growth
    size_t num_args = 0;
    std::array<const char*, kMaxArgs> arg_names{};
    std::array<uint64_t, kMaxArgs> arg_values{};
  };

  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }

  static void AddArg(OpenSpan* s, const char* name, uint64_t delta) {
    for (size_t a = 0; a < s->num_args; ++a) {
      if (std::strcmp(s->arg_names[a], name) == 0) {
        s->arg_values[a] += delta;
        return;
      }
    }
    if (s->num_args >= kMaxArgs) return;  // full: bounded by design
    s->arg_names[s->num_args] = name;
    s->arg_values[s->num_args] = delta;
    ++s->num_args;
  }

  void Push(const Event& e) {
    if (buffer_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    buffer_.push_back(e);
  }

  size_t capacity_;
  std::vector<Event> buffer_;  // preallocated; never grows past capacity_
  std::array<OpenSpan, kMaxDepth> open_;
  size_t depth_ = 0;
  uint64_t next_id_ = 1;
  uint64_t dropped_ = 0;
  Clock::time_point epoch_;
};

// RAII span. Tolerates a null tracer (the disabled path: one branch at
// open and one at close, nothing else). Non-copyable and non-movable so
// scopes map one-to-one onto spans and nesting stays LIFO.
class Span {
 public:
  Span(Tracer* tracer, const char* name,
       const QueryStats* stats = nullptr)
      : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->BeginSpan(name, stats);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->EndSpan(id_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Attaches (or accumulates into) a named argument. Only valid while
  // this span is the innermost open one — i.e. call between child
  // spans, not while one is open.
  void Arg(const char* name, uint64_t value) {
    if (tracer_ != nullptr) tracer_->CountInCurrent(name, value);
  }

 private:
  Tracer* tracer_;
  uint64_t id_ = 0;
};

// Null-safe free helpers: the only way code outside src/trace/ should
// touch a Tracer* (see the analyzer's `tracer` rule).
inline void Count(Tracer* tracer, const char* name, uint64_t delta) {
  if (tracer != nullptr) tracer->CountInCurrent(name, delta);
}

inline void Instant(Tracer* tracer, const char* name) {
  if (tracer != nullptr) tracer->RecordInstant(name);
}

}  // namespace topk::trace

#endif  // TOPK_TRACE_TRACER_H_
