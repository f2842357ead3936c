// serve-thm1: read-only serving of Theorem 1 (the core-set reduction
// over a priority search tree) through a 4-worker QueryEngine, in
// 64-request batches of the E21 mix (k = 16, every 16th k = 1024).
// Time goes to the reduction and its substrate; epoch, federation,
// parallel and em work are nil.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/core_set_topk.h"
#include "harness.h"
#include "range1d/pst.h"
#include "serve/engine.h"
#include "serve/metrics.h"
#include "workloads.h"

namespace topk::perfbench {
namespace {

using Thm1 = CoreSetTopK<Range1DProblem, range1d::PrioritySearchTree>;
using Engine = serve::QueryEngine<Thm1>;

constexpr size_t kN = size_t{1} << 17;
constexpr size_t kBatch = 64;
constexpr size_t kBatches = 64;  // request pool: 4096 distinct requests
constexpr size_t kWorkers = 4;
constexpr size_t kSetupReps = 15;
constexpr size_t kOracleStride = 61;  // every 61st request is brute-forced
constexpr size_t kReplay = 256;

struct Stack {
  std::unique_ptr<Thm1> structure;
  std::unique_ptr<serve::Metrics> metrics;
  std::unique_ptr<Engine> engine;
};

}  // namespace

void RunServeThm1(const Args& args, Report* report) {
  Rng rng(SubSeed(args.seed, 1));
  const std::vector<Point1D> data = UniformPoints(kN, &rng);
  std::vector<Request> pool;
  for (size_t i = 0; i < kBatch * kBatches; ++i) {
    pool.push_back({UniformRange(&rng), i % 16 == 0 ? size_t{1024} : 16});
  }
  std::vector<std::vector<Request>> batches(kBatches);
  for (size_t i = 0; i < pool.size(); ++i) {
    batches[i / kBatch].push_back(pool[i]);
  }

  Samples setup_s, build_s;
  double rss_mb = 0;
  Stack stack = RunSetups(
      kSetupReps,
      [&](double* build) {
        Stack s;
        const auto t0 = Clock::now();
        s.structure = std::make_unique<Thm1>(data);
        *build = Seconds(t0, Clock::now());
        s.metrics = std::make_unique<serve::Metrics>();
        s.engine = std::make_unique<Engine>(
            s.structure.get(), Engine::Options{.num_threads = kWorkers},
            s.metrics.get());
        return s;
      },
      &setup_s, &build_s, &rss_mb);
  std::printf("setup %zu reps: median %.4f s (build %.4f s), f=%zu\n",
              setup_s.size(), setup_s.Median(), build_s.Median(),
              stack.structure->f());

  // Oracle: brute force over every kOracleStride-th request.
  std::vector<std::vector<Point1D>> want(pool.size());
  for (size_t i = 0; i < pool.size(); i += kOracleStride) {
    want[i] = BruteTopK(data, pool[i].predicate, pool[i].k);
  }
  std::vector<Engine::Result> results;
  auto send = [&](size_t call, trace::Span*) {
    stack.engine->QueryBatchInto(batches[call % kBatches], &results);
    return kBatch;
  };
  auto check = [&](size_t call) {
    const size_t base = (call % kBatches) * kBatch;
    report->attempted += kBatch;
    for (size_t j = 0; j < kBatch; ++j) {
      if (!results[j].ok()) {
        ++report->failed;
      } else if ((base + j) % kOracleStride == 0 &&
                 !SameIds(results[j].elements, want[base + j])) {
        OracleFail("serve-thm1 request " + std::to_string(base + j));
      }
    }
  };

  // One untimed pass over the pool: warms the engine and fixes the
  // deterministic QueryStats totals of exactly these 4096 requests.
  for (size_t b = 0; b < kBatches; ++b) {
    send(b, nullptr);
    check(b);
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
  const Replay replay = ReplayDirect(*stack.structure, replay_set, nullptr,
                                     &tracer, "core.QueryInto");
  std::printf("counters.replay %s\n", StatsJson(replay.stats).c_str());
  ReplaySubstrates(data, replay_set, replay.tau, &tracer, report);
  ReplayDispatch(stack.engine.get(), replay_set, &tracer);

  SetCoreMetrics(report, tracer, "core.QueryInto", replay, build_s.Median());
  SetDispatch(report, tracer, "core.QueryInto");
  // Ideal engine throughput: every worker busy on back-to-back direct
  // queries. Mean, not median: the k = 1024 tail is part of the work.
  const double mean_s = SpanUs(tracer, "core.QueryInto").Mean() / 1e6;
  report->Set("serve.scaling_eff",
              untraced.qps() * mean_s / static_cast<double>(kWorkers));
  WriteChromeTrace(args.trace_out, {{"main", &tracer}});
}

}  // namespace topk::perfbench
