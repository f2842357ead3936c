// federate-zipf: one caller drives a federate::Coordinator over S = 4
// hash shards of n = 2^17. Each shard is a Theorem 2 structure in an
// EpochManager that never republishes, behind a 1-worker engine.
// Queries are Zipf(1.1) draws over 4096 distinct ranges at k = 64; the
// 1024-entry result cache is smaller than the hot set. Per-query
// reduction work is small, so time goes to TA rounds, merging, cache
// probes, epoch pins and each shard engine's 1-request round trip.
// At most 4 threads are runnable: a fan-out worker blocks while its
// shard's engine worker runs.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/zipf.h"
#include "core/reduction_options.h"
#include "core/sampled_topk.h"
#include "federate/coordinator.h"
#include "federate/shard_map.h"
#include "harness.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "serve/engine.h"
#include "serve/epoch.h"
#include "workloads.h"

namespace topk::perfbench {
namespace {

using Thm2 = SampledTopK<Range1DProblem, range1d::PrioritySearchTree,
                         range1d::RangeMax>;
using Engine = serve::QueryEngine<Thm2>;
using Manager = serve::EpochManager<Thm2>;
using Coord = federate::Coordinator<Thm2>;

constexpr size_t kN = size_t{1} << 17;
constexpr size_t kShards = 4;
constexpr size_t kDistinct = 4096;
constexpr size_t kK = 64;
constexpr size_t kCacheEntries = 1024;
constexpr double kSkew = 1.1;
constexpr size_t kDraws = size_t{1} << 21;  // precomputed, then cycled
constexpr size_t kWarmDraws = 4096;
constexpr size_t kSetupReps = 15;
constexpr size_t kBrutePins = 32;
constexpr size_t kReplay = 256;
// Each run serves kRotations federations in turn, each with its own
// structure seed and its own rank -> range assignment: one unlucky
// sample set (Theorem 2's per-query work varies up to 3x with it) or
// one cache collision between two hot ranges would otherwise decide a
// whole run's figures.
constexpr size_t kRotations = 8;
// Keeps the traced phases of all rotations inside one tracer.
constexpr size_t kTracedCallsPerRotation =
    (kTraceCapacity - 3 * kReplay - 4 * 4096) / kRotations;

// Members in construction order: the coordinator goes first, then the
// engines, then the managers their reader slots live in.
struct Stack {
  std::vector<std::unique_ptr<Manager>> epochs;
  std::vector<std::unique_ptr<Engine>> engines;
  std::unique_ptr<Coord> coord;
};

std::string CoordStatsJson(const Coord::Stats& s) {
  const std::pair<const char*, uint64_t> fields[] = {
      {"queries", s.queries},
      {"rounds", s.rounds},
      {"shard_fetches", s.shard_fetches},
      {"elements_pulled", s.elements_pulled},
      {"elements_transferred", s.elements_transferred},
      {"cache_hits", s.cache_hits},
      {"cache_misses", s.cache_misses},
      {"cache_invalidations", s.cache_invalidations},
      {"unstable_retries", s.unstable_retries},
      {"exhaustive_fallbacks", s.exhaustive_fallbacks},
  };
  std::string out = "{";
  for (const auto& [name, value] : fields) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += name;
    out += "\":";
    out += std::to_string(value);
  }
  return out + "}";
}

Stack BuildFederation(const std::vector<Point1D>& data,
                      uint64_t structure_seed, double* build_s) {
  Stack s;
  std::vector<std::vector<Point1D>> parts =
      federate::PartitionById(data, kShards);
  std::vector<Coord::Shard> shards;
  for (std::vector<Point1D>& part : parts) {
    const auto t0 = Clock::now();
    Thm2 structure(std::move(part), ReductionOptions{.seed = structure_seed});
    *build_s += Seconds(t0, Clock::now());
    s.epochs.push_back(std::make_unique<Manager>(std::move(structure)));
    s.engines.push_back(std::make_unique<Engine>(
        s.epochs.back().get(), Engine::Options{.num_threads = 1}));
    shards.push_back({s.engines.back().get(), s.epochs.back().get()});
  }
  s.coord = std::make_unique<Coord>(
      std::move(shards), Coord::Options{.cache_entries = kCacheEntries});
  return s;
}

// Layer replays against shard 0, at the workload's k.
void ReplayLayers(const Stack& stack, const std::vector<Point1D>& data,
                  const std::vector<Range1D>& ranges, double build_s,
                  trace::Tracer* tracer, Report* report) {
  std::vector<Request> replay_set;
  for (size_t r = 0; r < kReplay; ++r) replay_set.push_back({ranges[r], kK});
  const std::vector<Point1D> part0 = federate::PartitionById(data, kShards)[0];
  Manager* shard0 = stack.epochs[0].get();
  const size_t slot = shard0->RegisterReader();
  Replay replay;
  {
    const auto pin = shard0->Acquire(slot);
    replay = ReplayDirect(*pin.get(), replay_set, nullptr, tracer,
                          "core.QueryInto");
  }
  std::printf("counters.replay %s\n", StatsJson(replay.stats).c_str());
  ReplaySubstrates(part0, replay_set, replay.tau, tracer, report);
  ReplayDispatch(stack.engines[0].get(), replay_set, tracer);

  SetCoreMetrics(report, *tracer, "core.QueryInto", replay, build_s);
  SetDispatch(report, *tracer, "core.QueryInto");
  report->Set("epoch.acquire_ns", AcquireNs(shard0, slot, tracer));
}

}  // namespace

void RunFederateZipf(const Args& args, Report* report) {
  Rng rng(SubSeed(args.seed, 2));
  const std::vector<Point1D> data = UniformPoints(kN, &rng);
  std::vector<Range1D> ranges(kDistinct);
  for (Range1D& r : ranges) r = UniformRange(&rng);
  const ZipfDistribution zipf(kDistinct, kSkew);
  std::vector<uint16_t> draws(kDraws);
  for (uint16_t& d : draws) d = static_cast<uint16_t>(zipf.Next(&rng));
  // Rotation r serves Zipf rank i as range hot[r][i].
  std::vector<std::vector<uint16_t>> hot(kRotations,
                                         std::vector<uint16_t>(kDistinct));
  for (std::vector<uint16_t>& perm : hot) {
    for (size_t i = 0; i < kDistinct; ++i) perm[i] = static_cast<uint16_t>(i);
    for (size_t i = kDistinct - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.Below(i + 1)]);
    }
  }

  // Oracle: one structure over the union, pinned to brute force.
  std::vector<std::vector<Point1D>> want(kDistinct);
  {
    const Thm2 whole(data);
    Scratch scratch;
    for (size_t r = 0; r < kDistinct; ++r) {
      DirectQueryInto(whole, Request{ranges[r], kK}, &scratch, &want[r],
                      nullptr, nullptr);
    }
  }
  for (size_t r = 0; r < kBrutePins; ++r) {
    if (!SameIds(want[r], BruteTopK(data, ranges[r], kK))) {
      OracleFail("federate-zipf union oracle, range " + std::to_string(r));
    }
  }

  std::unique_ptr<trace::Tracer> tracer;
  if (args.trace) tracer = std::make_unique<trace::Tracer>(kTraceCapacity);
  Samples setup_s, build_s;
  double rss_mb = 0;
  LoopStats untraced, traced;
  Coord::Stats traced_stats;  // summed over the traced phases
  std::vector<Point1D> out;
  size_t cursor = 0;
  for (size_t rotation = 0; rotation < kRotations; ++rotation) {
    const uint64_t structure_seed = SubSeed(args.seed, 100 + rotation);
    auto build = [&](double* b) {
      return BuildFederation(data, structure_seed, b);
    };
    Stack stack;
    if (rotation == 0) {
      stack = RunSetups(kSetupReps, build, &setup_s, &build_s, &rss_mb);
    } else {
      double b = 0;
      const auto t0 = Clock::now();
      stack = build(&b);
      setup_s.Add(Seconds(t0, Clock::now()));
      build_s.Add(b);
    }

    const std::vector<uint16_t>& range_of = hot[rotation];
    size_t range = 0;
    serve::ResultStatus status = serve::ResultStatus::kOk;
    auto send = [&](size_t, trace::Span* span) {
      range = range_of[draws[cursor++ % kDraws]];
      const uint64_t hits = stack.coord->stats().cache_hits;
      status = stack.coord->QueryInto(ranges[range], kK, &out);
      span->Arg("cache_hit", stack.coord->stats().cache_hits - hits);
      return size_t{1};
    };
    auto check = [&](size_t) {
      ++report->attempted;
      if (status != serve::ResultStatus::kOk) {
        ++report->failed;
      } else if (!SameIds(out, want[range])) {
        OracleFail("federate-zipf range " + std::to_string(range));
      }
    };

    // Untimed warm-up fills this federation's cache; after rotation 0's
    // the coordinator counters are deterministic for the seed.
    for (size_t d = 0; d < kWarmDraws; ++d) {
      trace::Span idle(nullptr, "warmup");
      send(d, &idle);
      check(d);
    }
    if (rotation == 0) {
      std::printf("counters %s\n",
                  CoordStatsJson(stack.coord->stats()).c_str());
    }

    const double slice = args.seconds / static_cast<double>(kRotations) /
                         (args.trace ? 2.0 : 1.0);
    untraced.Merge(ClosedLoop(slice, nullptr, "", send, check));
    if (!args.trace) continue;
    const Coord::Stats before = stack.coord->stats();
    traced.Merge(ClosedLoop(slice, tracer.get(), "federate.QueryInto", send,
                            check, kTracedCallsPerRotation));
    const Coord::Stats& after = stack.coord->stats();
    traced_stats.queries += after.queries - before.queries;
    traced_stats.rounds += after.rounds - before.rounds;
    traced_stats.shard_fetches += after.shard_fetches - before.shard_fetches;
    traced_stats.elements_pulled +=
        after.elements_pulled - before.elements_pulled;
    traced_stats.elements_transferred +=
        after.elements_transferred - before.elements_transferred;
    traced_stats.cache_hits += after.cache_hits - before.cache_hits;
    traced_stats.cache_misses += after.cache_misses - before.cache_misses;
    traced_stats.cache_invalidations +=
        after.cache_invalidations - before.cache_invalidations;
    traced_stats.unstable_retries +=
        after.unstable_retries - before.unstable_retries;
    traced_stats.exhaustive_fallbacks +=
        after.exhaustive_fallbacks - before.exhaustive_fallbacks;
    if (rotation + 1 == kRotations) {
      ReplayLayers(stack, data, ranges, build_s.Median(), tracer.get(),
                   report);
    }
  }
  std::printf("setup %zu builds: median %.4f s (build %.4f s)\n",
              setup_s.size(), setup_s.Median(), build_s.Median());

  if (!args.trace) {
    SetReadEndToEnd(report, untraced, setup_s, rss_mb);
    return;
  }
  SetTracedRunReads(report, untraced, traced);
  const Coord::Stats& st = traced_stats;
  const double q = static_cast<double>(st.queries);
  report->Set("federate.rounds_per_query", static_cast<double>(st.rounds) / q);
  report->Set("federate.fetches_per_query",
              static_cast<double>(st.shard_fetches) / q);
  report->Set("federate.pulled_per_query",
              static_cast<double>(st.elements_pulled) / q);
  report->Set("federate.transferred_per_query",
              static_cast<double>(st.elements_transferred) / q);
  report->Set("federate.cache_hit_rate",
              static_cast<double>(st.cache_hits) /
                  static_cast<double>(st.cache_hits + st.cache_misses));
  report->Set("federate.invalidations",
              static_cast<double>(st.cache_invalidations));
  report->Set("federate.unstable_retries",
              static_cast<double>(st.unstable_retries));
  report->Set("federate.exhaustive_fallbacks",
              static_cast<double>(st.exhaustive_fallbacks));
  const Samples hit_us =
      SpanUs(*tracer, "federate.QueryInto", "cache_hit", 1);
  const Samples miss_us =
      SpanUs(*tracer, "federate.QueryInto", "cache_hit", 0);
  report->Set("federate.hit_us_p50", hit_us.Median());
  report->Set("federate.miss_us_p50", miss_us.Median());
  report->Set("federate.miss_us_p99", miss_us.Percentile(99));
  PrintLatency("federate hit_us", hit_us, "us");
  PrintLatency("federate miss_us", miss_us, "us");
  WriteChromeTrace(args.trace_out, {{"main", tracer.get()}});
}

}  // namespace topk::perfbench
