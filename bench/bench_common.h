// Shared benchmark helpers: deterministic workload generators, one
// uniform 1D range draw, one build-once cache (structure construction
// is expensive and must stay out of the timed region) and one warm
// query harness. Every timed top-k loop queries through WarmQuery, so
// it times the query and not a per-call arena; RegisterLazy is the
// one google-benchmark registration built on Cached and WarmQuery.

#ifndef TOPK_BENCH_BENCH_COMMON_H_
#define TOPK_BENCH_BENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "circle/circular.h"
#include "common/random.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/problem.h"
#include "dominance/point3.h"
#include "enclosure/rect.h"
#include "halfspace/point2.h"
#include "interval/interval.h"
#include "range1d/point1d.h"
#include "trace/tracer.h"

namespace topk::bench {

inline std::vector<range1d::Point1D> Points1D(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<range1d::Point1D> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = {rng.NextDouble(), rng.NextDouble() * 1e6, i + 1};
  }
  return out;
}

// A uniform 1D range: endpoint a, then endpoint b, ordered.
inline range1d::Range1D UniformRange1D(Rng* rng) {
  double a = rng->NextDouble(), b = rng->NextDouble();
  if (a > b) std::swap(a, b);
  return {a, b};
}

// `count` uniform 1D ranges, drawn in order from Rng(seed).
inline std::vector<range1d::Range1D> UniformRanges1D(size_t count,
                                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<range1d::Range1D> out(count);
  for (range1d::Range1D& q : out) q = UniformRange1D(&rng);
  return out;
}

inline std::vector<interval::Interval> Intervals(size_t n, uint64_t seed,
                                                 double span = 0.05) {
  Rng rng(seed);
  std::vector<interval::Interval> out(n);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.NextDouble();
    out[i] = {a, a + rng.NextDouble() * span, rng.NextDouble() * 1e6, i + 1};
  }
  return out;
}

inline std::vector<enclosure::Rect> Rects(size_t n, uint64_t seed,
                                          double span = 0.1) {
  Rng rng(seed);
  std::vector<enclosure::Rect> out(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.NextDouble(), y = rng.NextDouble();
    out[i] = {x, x + rng.NextDouble() * span, y, y + rng.NextDouble() * span,
              rng.NextDouble() * 1e6, i + 1};
  }
  return out;
}

inline std::vector<dominance::Point3> Points3D(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<dominance::Point3> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble(),
              rng.NextDouble() * 1e6, i + 1};
  }
  return out;
}

inline std::vector<halfspace::Point2W> PointsHs(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<halfspace::Point2W> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = {rng.NextDouble() * 2 - 1, rng.NextDouble() * 2 - 1,
              rng.NextDouble() * 1e6, i + 1};
  }
  return out;
}

inline std::vector<circle::WPoint2> Points2D(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<circle::WPoint2> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble() * 1e6,
              i + 1};
  }
  return out;
}

// A timed query loop's state, kept warm the way a serving worker keeps
// it: one Scratch and one output vector reused by every call, so a timed
// query never pays an arena's first-borrow allocations (topk::Query
// builds both per call; keep it for untimed checks).
template <TopKStructure S>
class WarmQuery {
 public:
  explicit WarmQuery(const S& s) : s_(s) {}

  // The k heaviest matches of q, heaviest first; valid until the next
  // call.
  const std::vector<typename S::Element>& operator()(
      const typename S::Predicate& q, size_t k, QueryStats* stats = nullptr,
      trace::Tracer* tracer = nullptr) {
    s_.QueryInto(q, k, &scratch_, &out_, stats, tracer, nullptr);
    return out_;
  }

 private:
  const S& s_;
  Scratch scratch_;
  std::vector<typename S::Element> out_;
};

// Work counters of `count` queries at k, each drawn by `draw(&rng)` from
// a fixed seed and run untimed through a warm arena. A per-query counter
// printed from them is the same on every run, whatever iteration count
// google-benchmark picks for the timed loop.
template <TopKStructure S, typename Draw>
QueryStats FixedQueryStats(const S& s, size_t k, size_t count, Draw draw) {
  WarmQuery<S> query(s);
  Rng rng(0xc0de);
  QueryStats stats;
  for (size_t i = 0; i < count; ++i) query(draw(&rng), k, &stats);
  return stats;
}

// Build-once cache: structures keyed by (n, seed). Benchmarks pull the
// same instance across timing iterations.
template <typename S>
const S& Cached(size_t n, uint64_t seed, auto&& build) {
  static std::map<std::pair<size_t, uint64_t>, std::unique_ptr<S>> cache;
  auto key = std::make_pair(n, seed);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, std::make_unique<S>(build(n, seed))).first;
  }
  return *it->second;
}

// Registers the google-benchmark entry "<label>/<n>": structure S over
// data(n), built once through Cached (outside the timed loop), answers
// the k heaviest matches of draw(&rng) per iteration through a
// WarmQuery. One untimed query warms the arena first; the timed
// predicates come from Rng(0xbe7c), so every run times the same
// sequence. Registrations of one S may share a build when their `data`
// has one type, so give each data set its own lambda.
template <TopKStructure S, typename Data, typename Draw>
void RegisterLazy(const std::string& label, size_t n, size_t k, Data data,
                  Draw draw) {
  benchmark::RegisterBenchmark(
      (label + "/" + std::to_string(n)).c_str(),
      [n, k, data, draw](benchmark::State& state) {
        WarmQuery<S> query(
            Cached<S>(n, /*seed=*/0,
                      [&data](size_t m, uint64_t) { return data(m); }));
        Rng warm(0xc0de);
        query(draw(&warm), k);  // warms the arena, untimed
        Rng rng(0xbe7c);
        for (auto _ : state) {
          benchmark::DoNotOptimize(query(draw(&rng), k).data());
        }
        state.counters["n"] = static_cast<double>(n);
      });
}

}  // namespace topk::bench

#endif  // TOPK_BENCH_BENCH_COMMON_H_
