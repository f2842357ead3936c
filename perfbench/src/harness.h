// Shared plumbing of the serving benchmark: run arguments, exact
// percentiles, the result record, the closed-loop runner, span
// helpers, seeded inputs, the brute-force oracle, the one direct-query
// adapter the replays go through, and a counting ByteStorage decorator.
//
// Everything here is benchmark code: it drives the library only
// through public entry points and never reaches into its internals.

#ifndef TOPK_PERFBENCH_HARNESS_H_
#define TOPK_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/kselect.h"
#include "common/random.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/sink.h"
#include "em/storage.h"
#include "parallel/context.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "serve/engine.h"
#include "trace/chrome_json.h"
#include "trace/tracer.h"

namespace topk::perfbench {

using range1d::Point1D;
using range1d::Range1D;
using range1d::Range1DProblem;
using Request = serve::Request<Range1D>;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir;    // scratch files (churn-durable's durable store)
  std::string trace_out;  // Chrome trace written by traced runs
};

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// An oracle mismatch: report and exit nonzero without printing a
// result. _Exit, because background threads (the churn writer, engine
// pools) may still be running.
[[noreturn]] inline void OracleFail(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "ORACLE MISMATCH: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

// ---- exact percentiles ------------------------------------------------

// Nearest rank: the smallest sample with at least p% of all samples at
// or below it (1-based rank ceil(p/100 * n)).
inline size_t NearestRank(double p, size_t n) {
  const double r =
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  if (r < 1.0) return 1;
  return r > static_cast<double>(n) ? n : static_cast<size_t>(r);
}

// Per-call samples; every latency metric is computed from these,
// never from a bucketed histogram.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& o) {
    values_.insert(values_.end(), o.values_.begin(), o.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  // 0 when empty (idle layers read zero).
  double Percentile(double p) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    const size_t rank = NearestRank(p, sorted.size());
    std::nth_element(sorted.begin(), sorted.begin() + (rank - 1),
                     sorted.end());
    return sorted[rank - 1];
  }
  double Median() const { return Percentile(50.0); }
  double Sum() const {
    double s = 0;
    for (const double v : values_) s += v;
    return s;
  }
  double Mean() const {
    return values_.empty() ? 0.0
                           : Sum() / static_cast<double>(values_.size());
  }

  // The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples
  // strictly beyond its rank (p50 when even that has fewer).
  double TailPercentile() const {
    for (const double p : {99.99, 99.9, 99.0, 90.0}) {
      if (values_.size() - NearestRank(p, values_.size()) >= 10) return p;
    }
    return 50.0;
  }

 private:
  std::vector<double> values_;
};

// Aborts unless the percentile helper reproduces hand-computed ranks.
inline void SelfCheckPercentiles() {
  Samples s;
  for (int i = 1000; i >= 1; --i) s.Add(i);  // 1..1000, reversed
  const bool ok = s.Percentile(50) == 500 && s.Percentile(99) == 990 &&
                  s.Percentile(99.9) == 999 && s.Percentile(100) == 1000 &&
                  s.Percentile(0.1) == 1 && s.TailPercentile() == 99.0 &&
                  s.Median() == 500;
  Samples t;
  for (const double v : {3.0, 1.0, 2.0}) t.Add(v);
  if (!ok || t.Percentile(50) != 2 || t.Percentile(34) != 2 ||
      t.Percentile(33) != 1 || t.TailPercentile() != 50.0 ||
      Samples().Percentile(50) != 0.0) {
    std::fprintf(stderr, "percentile self-check failed\n");
    std::exit(4);
  }
}

// ---- the result record --------------------------------------------------

// Metric name -> unit, in print order. main.cc defines the two tables;
// Set() refuses names that are not in the active one.
struct MetricDef {
  const char* name;
  const char* unit;
};

class Report {
 public:
  explicit Report(std::vector<MetricDef> defs) : defs_(std::move(defs)) {}

  void Set(const char* name, double value) {
    for (const MetricDef& d : defs_) {
      if (std::strcmp(d.name, name) == 0) {
        values_[d.name] = std::isfinite(value) ? value : 0.0;
        return;
      }
    }
    std::fprintf(stderr, "unknown metric %s\n", name);
    std::exit(5);
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Human-readable table, then the one-line JSON record last.
  void Print() const {
    for (const MetricDef& d : defs_) {
      const auto it = values_.find(d.name);
      if (it == values_.end()) {
        std::fprintf(stderr, "metric %s was not measured\n", d.name);
        std::exit(5);
      }
      std::printf("metric %-34s %16.6f %s\n", d.name, it->second, d.unit);
    }
    std::string json = "{\"correct\": true, \"attempted\": " +
                       std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& d : defs_) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%.9g", values_.at(d.name));
      json += std::string(first ? "" : ", ") + "\"" + d.name +
              "\": {\"value\": " + buf + ", \"unit\": \"" + d.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  std::vector<MetricDef> defs_;
  std::map<std::string, double> values_;
};

// Prints a latency distribution: median, p99, the highest percentile
// with ten samples beyond it, and the sample count.
inline void PrintLatency(const char* what, const Samples& s,
                         const char* unit) {
  const double tail = s.TailPercentile();
  std::printf("latency %-24s p50 %.3f  p99 %.3f  p%g %.3f %s  (n=%zu)\n",
              what, s.Median(), s.Percentile(99), tail, s.Percentile(tail),
              unit, s.size());
}

// ---- process state --------------------------------------------------------

inline double RssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

// Runs `build` `reps` times and keeps the FIRST result (the resident
// set is read right after it, before any repeat allocates). Each
// repeat's wall time lands in *setup_s; `build` reports its own
// structure-build share through its double* argument.
template <typename Build>
auto RunSetups(size_t reps, Build&& build, Samples* setup_s,
               Samples* build_s, double* rss_mb) {
  using Stack = decltype(build(static_cast<double*>(nullptr)));
  std::optional<Stack> kept;
  for (size_t r = 0; r < reps; ++r) {
    double b = 0;
    const auto t0 = Clock::now();
    Stack s = build(&b);
    setup_s->Add(Seconds(t0, Clock::now()));
    build_s->Add(b);
    if (r == 0) {
      kept.emplace(std::move(s));
      *rss_mb = RssMb();
    }
  }
  return std::move(*kept);
}

// ---- closed loop ------------------------------------------------------------

// Throughput is the median over consecutive windows of this much busy
// time: on a shared machine a burst of stolen CPU then costs one
// window, not the whole run's figure.
inline constexpr double kQpsWindowS = 0.5;

struct LoopStats {
  Samples latency_us;  // one sample per call, as the caller saw it
  Samples window_qps;  // requests / busy time per kQpsWindowS window
  uint64_t calls = 0;
  uint64_t requests = 0;  // read requests answered
  double busy_s = 0;      // sum of call durations

  double qps() const {
    if (!window_qps.empty()) return window_qps.Median();
    return busy_s > 0 ? static_cast<double>(requests) / busy_s : 0.0;
  }

  void Merge(const LoopStats& o) {
    latency_us.Append(o.latency_us);
    window_qps.Append(o.window_qps);
    calls += o.calls;
    requests += o.requests;
    busy_s += o.busy_s;
  }
};

// Traced loops stop before the tracer fills: a dropped span would bias
// every per-layer number derived from the spans.
inline bool TracerFull(const trace::Tracer* t) {
  return t != nullptr && t->events().size() + 4096 >= t->capacity();
}

// One caller, each request sent only after the previous reply:
// send(i, span) makes the i-th call and returns how many read
// requests it answered; check(i) runs the oracle outside the timed
// region. Stops after `seconds` of wall time, `max_calls` calls or a
// full tracer, whichever comes first.
template <typename Send, typename Check>
LoopStats ClosedLoop(double seconds, trace::Tracer* tracer,
                     const char* span_name, Send&& send, Check&& check,
                     size_t max_calls = SIZE_MAX) {
  LoopStats s;
  const auto end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  double window_s = 0;
  uint64_t window_requests = 0;
  for (size_t i = 0; i < max_calls && !TracerFull(tracer); ++i) {
    size_t answered = 0;
    const auto t0 = Clock::now();
    {
      trace::Span span(tracer, span_name);
      answered = send(i, &span);
    }
    const auto t1 = Clock::now();
    const double call_s = Seconds(t0, t1);
    s.latency_us.Add(call_s * 1e6);
    s.busy_s += call_s;
    s.requests += answered;
    ++s.calls;
    window_s += call_s;
    window_requests += answered;
    if (window_s >= kQpsWindowS) {
      s.window_qps.Add(static_cast<double>(window_requests) / window_s);
      window_s = 0;
      window_requests = 0;
    }
    check(i);
    if (Clock::now() >= end) break;
  }
  return s;
}

// ---- spans --------------------------------------------------------------

// Durations (us) of the spans named `name`; with `arg`, only those
// whose argument `arg` equals `value`.
inline Samples SpanUs(const trace::Tracer& t, const char* name,
                      const char* arg = nullptr, uint64_t value = 0) {
  Samples out;
  for (const trace::Tracer::Event& e : t.events()) {
    if (e.kind != trace::Tracer::EventKind::kSpan ||
        std::strcmp(e.name, name) != 0) {
      continue;
    }
    if (arg != nullptr) {
      bool match = false;
      for (size_t a = 0; a < e.num_args; ++a) {
        if (std::strcmp(e.arg_names[a], arg) == 0 &&
            e.arg_values[a] == value) {
          match = true;
        }
      }
      if (!match) continue;
    }
    out.Add(static_cast<double>(e.dur_ns) / 1e3);
  }
  return out;
}

struct NamedTracer {
  const char* thread;
  const trace::Tracer* tracer;
};

// All spans of a traced run as one Chrome trace document.
inline void WriteChromeTrace(const std::string& path,
                             const std::vector<NamedTracer>& tracers) {
  if (path.empty()) return;
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  size_t spans = 0;
  for (size_t t = 0; t < tracers.size(); ++t) {
    trace::AppendChromeEvents(*tracers[t].tracer, t, tracers[t].thread,
                              &first, &out);
    spans += tracers[t].tracer->events().size();
  }
  out += "]}";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(6);
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("trace %zu spans -> %s\n", spans, path.c_str());
}

// ---- seeded inputs --------------------------------------------------------

// Independent stream `stream` of the run seed.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng mix(seed * 0x9e3779b97f4a7c15ULL + stream);
  return mix.Next();
}

// n points, x uniform in [0, 1), weight uniform in [0, 1e6), ids 1..n.
inline std::vector<Point1D> UniformPoints(size_t n, Rng* rng) {
  std::vector<Point1D> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = {rng->NextDouble(), rng->NextDouble() * 1e6, i + 1};
  }
  return out;
}

inline Range1D UniformRange(Rng* rng) {
  double lo = rng->NextDouble(), hi = rng->NextDouble();
  if (lo > hi) std::swap(lo, hi);
  return {lo, hi};
}

// ---- oracle ---------------------------------------------------------------

inline std::vector<Point1D> BruteTopK(const std::vector<Point1D>& data,
                                      const Range1D& q, size_t k) {
  std::vector<Point1D> pool;
  for (const Point1D& p : data) {
    if (Range1DProblem::Matches(q, p)) pool.push_back(p);
  }
  SelectTopK(&pool, k);
  return pool;
}

inline bool SameIds(const std::vector<Point1D>& got,
                    const std::vector<Point1D>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id) return false;
  }
  return true;
}

// ---- direct replays ---------------------------------------------------------

// The one call site of the reductions' direct query API: every replay
// outside the engines goes through here.
template <typename S>
void DirectQueryInto(const S& s, const Request& r, Scratch* scratch,
                     std::vector<Point1D>* out, QueryStats* stats,
                     parallel::Context* par) {
  s.QueryInto(r.predicate, r.k, scratch, out, stats, nullptr, par);
}

struct Replay {
  QueryStats stats;  // results_returned charged as the engine does
  size_t queries = 0;
  // Weight of each request's k-th answer (-inf when fewer matched):
  // the threshold an ideal prioritized query would need.
  std::vector<double> tau;
};

// Single-thread replay of `requests`: one untimed pass warms the
// scratch arena, the second pass runs under `span_name` spans and
// charges QueryStats (deterministic for a static structure).
template <typename S>
Replay ReplayDirect(const S& s, const std::vector<Request>& requests,
                    parallel::Context* par, trace::Tracer* tracer,
                    const char* span_name) {
  Scratch scratch;
  std::vector<Point1D> out;
  for (const Request& r : requests) {
    DirectQueryInto(s, r, &scratch, &out, nullptr, par);
  }
  Replay replay;
  for (const Request& r : requests) {
    {
      trace::Span span(tracer, span_name);
      DirectQueryInto(s, r, &scratch, &out, &replay.stats, par);
    }
    replay.stats.results_returned += out.size();
    ++replay.queries;
    replay.tau.push_back(out.size() == r.k
                             ? out.back().weight
                             : -std::numeric_limits<double>::infinity());
  }
  return replay;
}

// Substrate and k-selection replays over the elements the workload's
// structure holds, one of each per request: IssuePrioritized on a PST
// at the request's replayed tau (the Q_pri + k ideal the reductions
// are measured against), RangeMax::QueryMax, and SelectTopK over the
// request's matched pool at its k.
inline void ReplaySubstrates(const std::vector<Point1D>& data,
                             const std::vector<Request>& requests,
                             const std::vector<double>& tau,
                             trace::Tracer* tracer, Report* report) {
  const range1d::PrioritySearchTree pst(data);
  uint64_t emitted = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    trace::Span span(tracer, "range1d.IssuePrioritized");
    IssuePrioritized(
        pst, requests[i].predicate, tau[i],
        [&emitted](const Point1D&) {
          ++emitted;
          return true;
        },
        nullptr);
  }
  const range1d::RangeMax max(data);
  size_t found = 0;
  for (const Request& r : requests) {
    trace::Span span(tracer, "range1d.QueryMax");
    if (max.QueryMax(r.predicate).has_value()) ++found;
  }
  for (const Request& r : requests) {
    std::vector<Point1D> matched;
    for (const Point1D& p : data) {
      if (Range1DProblem::Matches(r.predicate, p)) matched.push_back(p);
    }
    trace::Span span(tracer, "common.SelectTopK");
    SelectTopK(&matched, r.k);
  }
  // Printing the totals keeps the replayed calls from being optimized out.
  std::printf("replay substrates: %llu emitted, %zu of %zu ranges non-empty\n",
              static_cast<unsigned long long>(emitted), found,
              requests.size());
  report->Set("range1d.max_us_p50",
              SpanUs(*tracer, "range1d.QueryMax").Median());
  report->Set("common.select_us_p50",
              SpanUs(*tracer, "common.SelectTopK").Median());
}

// 1-request QueryBatchInto per request, spanned; paired with the direct
// replay of the same requests it prices the engine's dispatch.
template <typename Engine>
void ReplayDispatch(Engine* engine, const std::vector<Request>& requests,
                    trace::Tracer* tracer) {
  std::vector<Request> one(1);
  std::vector<typename Engine::Result> results;
  for (const Request& r : requests) {
    one[0] = r;
    engine->QueryBatchInto(one, &results);  // warm the slot
  }
  for (const Request& r : requests) {
    one[0] = r;
    trace::Span span(tracer, "serve.QueryBatchInto.1");
    engine->QueryBatchInto(one, &results);
  }
}

// Median ns of one Acquire+Release round trip on a reader slot of a
// quiescent `epochs`, from spans around blocks of kRoundTrips pins.
template <typename Manager>
double AcquireNs(Manager* epochs, size_t slot, trace::Tracer* tracer) {
  constexpr size_t kBlocks = 200;
  constexpr size_t kRoundTrips = 1000;
  const uint64_t want = epochs->Acquire(slot).seq();
  for (size_t b = 0; b < kBlocks; ++b) {
    trace::Span span(tracer, "epoch.Acquire.x1000");
    for (size_t i = 0; i < kRoundTrips; ++i) {
      const auto pin = epochs->Acquire(slot);
      if (pin.seq() != want) OracleFail("epoch moved while quiescent");
    }
  }
  return SpanUs(*tracer, "epoch.Acquire.x1000").Median() * 1e3 /
         static_cast<double>(kRoundTrips);
}

// ---- per-layer metric helpers ---------------------------------------------

// core.* from a direct replay: latency from its spans, work from its
// QueryStats, overhead against the ideal prioritized replay.
inline void SetCoreMetrics(Report* report, const trace::Tracer& tracer,
                           const char* span_name, const Replay& replay,
                           double build_s) {
  const double q = static_cast<double>(replay.queries);
  const double core_us = SpanUs(tracer, span_name).Median();
  const double ideal_us = SpanUs(tracer, "range1d.IssuePrioritized").Median();
  report->Set("core.query_us_p50", core_us);
  report->Set("core.emitted_per_result",
              replay.stats.results_returned == 0
                  ? 0.0
                  : static_cast<double>(replay.stats.elements_emitted) /
                        static_cast<double>(replay.stats.results_returned));
  report->Set("core.nodes_per_query",
              static_cast<double>(replay.stats.nodes_visited) / q);
  report->Set("core.prioritized_per_query",
              static_cast<double>(replay.stats.prioritized_queries) / q);
  report->Set("core.rounds_per_query",
              static_cast<double>(replay.stats.rounds) / q);
  report->Set("core.full_scans_per_query",
              static_cast<double>(replay.stats.full_scans) / q);
  report->Set("core.fallbacks", static_cast<double>(replay.stats.fallbacks));
  report->Set("core.build_s", build_s);
  report->Set("range1d.pri_ideal_us_p50", ideal_us);
  report->Set("core.overhead_vs_ideal",
              ideal_us > 0 ? core_us / ideal_us : 0.0);
}

inline std::string StatsJson(const QueryStats& s) {
  std::string out = "{";
  bool first = true;
  QueryStats::ForEachField([&](const char* name, auto member) {
    out += std::string(first ? "" : ",") + "\"" + name +
           "\":" + std::to_string(s.*member);
    first = false;
  });
  return out + "}";
}

// serve.dispatch_us: median 1-request batch minus median direct query,
// both replayed over the same requests.
inline void SetDispatch(Report* report, const trace::Tracer& tracer,
                        const char* direct_span) {
  report->Set("serve.dispatch_us",
              SpanUs(tracer, "serve.QueryBatchInto.1").Median() -
                  SpanUs(tracer, direct_span).Median());
}

// Read metrics of a traced run: the read p99 of its untraced phase
// (too noisy on a shared machine to carry a bound), and trace.*, what
// the benchmark's own spans cost each read metric (traced phase vs
// untraced phase of the same run).
inline void SetTracedRunReads(Report* report, const LoopStats& untraced,
                              const LoopStats& traced) {
  report->Set("read_p99_us", untraced.latency_us.Percentile(99));
  PrintLatency("read_us (untraced half)", untraced.latency_us, "us");
  PrintLatency("read_us (traced half)", traced.latency_us, "us");
  auto rel = [](double t, double u) { return u > 0 ? t / u - 1.0 : 0.0; };
  report->Set("trace.qps_overhead", rel(untraced.qps(), traced.qps()));
  report->Set("trace.read_p50_overhead",
              rel(traced.latency_us.Median(), untraced.latency_us.Median()));
  report->Set("trace.read_p99_overhead",
              rel(traced.latency_us.Percentile(99),
                  untraced.latency_us.Percentile(99)));
}

inline void SetReadEndToEnd(Report* report, const LoopStats& loop,
                            const Samples& setup_s, double rss_mb) {
  report->Set("qps", loop.qps());
  report->Set("read_p50_us", loop.latency_us.Median());
  report->Set("setup_s", setup_s.Median());
  report->Set("rss_mb", rss_mb);
  PrintLatency("read_us", loop.latency_us, "us");
  std::printf("reads %llu requests in %llu calls, busy %.3f s\n",
              static_cast<unsigned long long>(loop.requests),
              static_cast<unsigned long long>(loop.calls), loop.busy_s);
}

// ---- counting storage -------------------------------------------------------

// ByteStorage decorator that counts what the durability protocol asks
// of the disk. Single-owner like the storage it wraps.
class CountingStorage final : public em::ByteStorage {
 public:
  struct Counts {
    uint64_t writes = 0;
    uint64_t bytes_written = 0;
    uint64_t syncs = 0;
    uint64_t truncates = 0;
  };

  explicit CountingStorage(em::ByteStorage* inner) : inner_(inner) {}

  uint64_t size() const override { return inner_->size(); }
  void Read(uint64_t offset, size_t len, uint8_t* out) const override {
    inner_->Read(offset, len, out);
  }
  [[nodiscard]] em::IoResult Write(uint64_t offset, const uint8_t* data,
                                   size_t len) override {
    ++counts_.writes;
    counts_.bytes_written += len;
    return inner_->Write(offset, data, len);
  }
  [[nodiscard]] em::IoResult Sync() override {
    ++counts_.syncs;
    return inner_->Sync();
  }
  [[nodiscard]] em::IoResult Truncate(uint64_t new_size) override {
    ++counts_.truncates;
    return inner_->Truncate(new_size);
  }

  const Counts& counts() const { return counts_; }

 private:
  em::ByteStorage* inner_;
  Counts counts_;
};

}  // namespace topk::perfbench

#endif  // TOPK_PERFBENCH_HARNESS_H_
