// deepk-parallel: export-style requests. A static Theorem 2 engine with
// one request worker and intra_query_workers = 4 over n = 2^17 answers
// wide ranges at k ~ n/2 (the E27 shape), one request per batch. Nearly
// all time goes to the sharded flat scan and k-selection; this is the
// only workload where the parallel layer does real work.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/sampled_topk.h"
#include "harness.h"
#include "parallel/context.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "serve/engine.h"
#include "serve/metrics.h"
#include "workloads.h"

namespace topk::perfbench {
namespace {

using Thm2 = SampledTopK<Range1DProblem, range1d::PrioritySearchTree,
                         range1d::RangeMax>;
using Engine = serve::QueryEngine<Thm2>;

constexpr size_t kN = size_t{1} << 17;
constexpr size_t kPool = 64;
constexpr size_t kShards = 4;
constexpr size_t kSetupReps = 11;
constexpr size_t kOracle = 8;  // the first kOracle requests are brute-forced
constexpr size_t kReplay = 16;

struct Stack {
  std::unique_ptr<Thm2> structure;
  std::unique_ptr<serve::Metrics> metrics;
  std::unique_ptr<Engine> engine;
};

}  // namespace

void RunDeepkParallel(const Args& args, Report* report) {
  Rng rng(SubSeed(args.seed, 4));
  const std::vector<Point1D> data = UniformPoints(kN, &rng);
  std::vector<Request> pool;
  for (size_t i = 0; i < kPool; ++i) {
    const double lo = rng.NextDouble() * 0.2;
    const double hi = 0.8 + rng.NextDouble() * 0.2;
    pool.push_back({{lo, hi}, kN / 2 + 1 + i});
  }

  Samples setup_s, build_s;
  double rss_mb = 0;
  Stack stack = RunSetups(
      kSetupReps,
      [&](double* build) {
        Stack s;
        const auto t0 = Clock::now();
        s.structure = std::make_unique<Thm2>(data);
        *build = Seconds(t0, Clock::now());
        s.metrics = std::make_unique<serve::Metrics>();
        s.engine = std::make_unique<Engine>(
            s.structure.get(),
            Engine::Options{.num_threads = 1,
                            .intra_query_workers = kShards},
            s.metrics.get());
        return s;
      },
      &setup_s, &build_s, &rss_mb);
  std::printf("setup %zu reps: median %.4f s (build %.4f s), shards=%zu\n",
              setup_s.size(), setup_s.Median(), build_s.Median(),
              stack.engine->intra_query_workers());

  std::vector<std::vector<Point1D>> want(kOracle);
  for (size_t i = 0; i < kOracle; ++i) {
    want[i] = BruteTopK(data, pool[i].predicate, pool[i].k);
  }
  std::vector<Request> one(1);
  std::vector<Engine::Result> results;
  size_t cursor = 0;
  size_t served = 0;
  auto send = [&](size_t, trace::Span*) {
    served = cursor++ % kPool;
    one[0] = pool[served];
    stack.engine->QueryBatchInto(one, &results);
    return size_t{1};
  };
  auto check = [&](size_t) {
    ++report->attempted;
    if (!results[0].ok()) {
      ++report->failed;
    } else if (served < kOracle && !SameIds(results[0].elements, want[served])) {
      OracleFail("deepk-parallel request " + std::to_string(served));
    }
  };

  for (size_t i = 0; i < kPool; ++i) {
    send(i, nullptr);
    check(i);
  }
  std::printf("counters %s\n",
              StatsJson(stack.metrics->Snapshot().stats).c_str());

  if (!args.trace) {
    const LoopStats loop =
        ClosedLoop(args.seconds, nullptr, "", send, check);
    SetReadEndToEnd(report, loop, setup_s, rss_mb);
    return;
  }

  trace::Tracer tracer(kTraceCapacity);
  const LoopStats untraced =
      ClosedLoop(args.seconds / 2, nullptr, "", send, check);
  const LoopStats traced = ClosedLoop(args.seconds / 2, &tracer,
                                      "serve.QueryBatchInto", send, check);
  SetTracedRunReads(report, untraced, traced);

  const std::vector<Request> replay_set(pool.begin(),
                                        pool.begin() + kReplay);
  const Replay serial = ReplayDirect(*stack.structure, replay_set, nullptr,
                                     &tracer, "core.QueryInto");
  std::printf("counters.replay %s\n", StatsJson(serial.stats).c_str());
  {
    parallel::Context ctx(kShards);
    ReplayDirect(*stack.structure, replay_set, &ctx, &tracer,
                 "parallel.QueryInto");
  }
  ReplaySubstrates(data, replay_set, serial.tau, &tracer, report);
  ReplayDispatch(stack.engine.get(), replay_set, &tracer);

  SetCoreMetrics(report, tracer, "core.QueryInto", serial, build_s.Median());
  const double serial_us = SpanUs(tracer, "core.QueryInto").Median();
  const double par_us = SpanUs(tracer, "parallel.QueryInto").Median();
  report->Set("parallel.serial_deepk_us_p50", serial_us);
  report->Set("parallel.deepk_us_p50", par_us);
  report->Set("parallel.speedup", par_us > 0 ? serial_us / par_us : 0.0);
  // The engine serves through the same 4-shard path, so its dispatch
  // is priced against the sharded direct replay.
  SetDispatch(report, tracer, "parallel.QueryInto");
  const double mean_s = SpanUs(tracer, "core.QueryInto").Mean() / 1e6;
  report->Set("serve.scaling_eff", untraced.qps() * mean_s);
  WriteChromeTrace(args.trace_out, {{"main", &tracer}});
}

}  // namespace topk::perfbench
