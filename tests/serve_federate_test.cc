// Federated scatter-gather serving: the hash shard map, the
// coordinator's TA-style early-terminating merge (bitwise-exact vs a
// single engine over the union, for all four reductions at every shard
// count), the epoch-invalidated result cache, per-shard partial
// failure (degraded answers exact over survivors), and the coordinator
// under a live publisher — every answer exactly the per-shard
// snapshots it reports. Runs under TSan via the ci tsan job's `-R
// serve` sweep; the concurrent-publisher test is the target.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/binary_search_topk.h"
#include "core/core_set_topk.h"
#include "core/counting_topk.h"
#include "core/reduction_options.h"
#include "core/sampled_topk.h"
#include "federate/coordinator.h"
#include "federate/shard_map.h"
#include "range1d/count_tree.h"
#include "range1d/dyn_pst.h"
#include "range1d/dyn_range_max.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "serve/engine.h"
#include "serve/epoch.h"
#include "serve/metrics.h"
#include "serve/result.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::CountTree;
using range1d::DynamicPst;
using range1d::DynamicRangeMax;
using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;
using range1d::RangeMax;

using Thm1 = CoreSetTopK<Range1DProblem, PrioritySearchTree>;
using Thm2 = SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax>;
using Baseline = BinarySearchTopK<Range1DProblem, PrioritySearchTree>;
using Counting = CountingTopK<Range1DProblem, PrioritySearchTree, CountTree>;
using DynTopK = SampledTopK<Range1DProblem, DynamicPst, DynamicRangeMax>;

// --- Shard map -----------------------------------------------------------

TEST(ShardMap, PartitionIsDisjointCompleteAndBalanced) {
  Rng rng(41);
  const auto data = test::RandomPoints1D(20000, &rng);
  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{5}, size_t{8}}) {
    const auto parts = federate::PartitionById(data, num_shards);
    ASSERT_EQ(parts.size(), num_shards);
    std::vector<Point1D> reunion;
    for (size_t s = 0; s < num_shards; ++s) {
      for (const Point1D& e : parts[s]) {
        // Placement is a pure function of the id.
        EXPECT_EQ(federate::ShardOf(e.id, num_shards), s);
        reunion.push_back(e);
      }
      // The mixed hash keeps dense sequential ids spread out: no shard
      // more than 25% off the even split at this n.
      const double even =
          static_cast<double>(data.size()) / static_cast<double>(num_shards);
      EXPECT_GT(static_cast<double>(parts[s].size()), 0.75 * even);
      EXPECT_LT(static_cast<double>(parts[s].size()), 1.25 * even);
    }
    // Union of the parts is exactly the input (ids are unique).
    EXPECT_EQ(test::SortedIdsOf(reunion), test::SortedIdsOf(data));
  }
}

TEST(ShardMap, ShardOfIsPinnedAndSpreadsDenseIds) {
  // Placement is Mix64(id + kGoldenGamma) % S: SplitMix64's reference
  // outputs (0xe220a8397b1dcdaf is its first from seed 0) pin the mixer,
  // so every element keeps its home shard across releases.
  EXPECT_EQ(Mix64(0 + kGoldenGamma), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(Mix64(42 + kGoldenGamma), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(federate::ShardOf(1, 1000003), 745530u);
  EXPECT_EQ(federate::ShardOf(42, 1000003), 791898u);
  std::set<size_t> low3;
  for (uint64_t id = 1; id <= 64; ++id) {
    low3.insert(federate::ShardOf(id, 8));
  }
  EXPECT_EQ(low3.size(), 8u);  // dense ids reach every residue
}

// --- Exactness across shard counts and reductions ------------------------

// One federation: data hash-partitioned into S shards, one static
// engine per shard, a coordinator in front. Holds the shard structures
// and per-engine metrics so engine pointers stay valid for the
// coordinator's lifetime.
template <typename S>
struct Federation {
  std::vector<S> structures;
  std::vector<std::unique_ptr<serve::Metrics>> metrics;
  std::vector<std::unique_ptr<serve::QueryEngine<S>>> engines;
  std::unique_ptr<federate::Coordinator<S>> coord;

  // What the shard engines themselves counted as returned.
  uint64_t EngineResultsReturned() const {
    uint64_t total = 0;
    for (const auto& m : metrics) {
      total += m->Snapshot().stats.results_returned;
    }
    return total;
  }
};

template <typename S>
Federation<S> MakeStatic(
    const std::vector<Point1D>& data, size_t num_shards,
    const typename federate::Coordinator<S>::Options& options = {}) {
  Federation<S> f;
  auto parts = federate::PartitionById(data, num_shards);
  f.structures.reserve(num_shards);
  for (auto& p : parts) f.structures.emplace_back(std::move(p));
  std::vector<typename federate::Coordinator<S>::Shard> shards;
  for (size_t s = 0; s < num_shards; ++s) {
    f.metrics.push_back(std::make_unique<serve::Metrics>());
    f.engines.push_back(std::make_unique<serve::QueryEngine<S>>(
        &f.structures[s], typename serve::QueryEngine<S>::Options{},
        f.metrics.back().get()));
    shards.push_back({f.engines.back().get(), nullptr});
  }
  f.coord = std::make_unique<federate::Coordinator<S>>(std::move(shards),
                                                       options);
  return f;
}

template <typename S>
void ExpectFederatedExact(size_t num_shards, uint64_t seed) {
  Rng rng(seed);
  const auto data = test::RandomPoints1D(1500, &rng);
  auto fed = MakeStatic<S>(data, num_shards);
  const S whole(data);
  std::vector<Point1D> out;
  for (size_t i = 0; i < 40; ++i) {
    double lo = rng.NextDouble(), hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    const size_t k = (i % 7 == 0) ? 300 : 1 + i % 17;
    const Range1D q{lo, hi};
    ASSERT_EQ(fed.coord->QueryInto(q, k, &out), serve::ResultStatus::kOk)
        << "S=" << num_shards << " query " << i;
    // Bitwise-identical to the single-engine answer over the union —
    // which is itself pinned to brute force.
    EXPECT_EQ(test::IdsOf(out), test::IdsOf(topk::Query(whole, q, k)))
        << "S=" << num_shards << " query " << i;
    EXPECT_EQ(test::IdsOf(out),
              test::IdsOf(test::BruteTopK<Range1DProblem>(data, q, k)))
        << "S=" << num_shards << " query " << i;
  }
  const serve::MetricsSnapshot& m = fed.coord->metrics();
  EXPECT_EQ(m.queries, 40u);
  EXPECT_EQ(m.ok, 40u);
}

constexpr size_t kShardCounts[] = {1, 2, 3, 5, 8};

TEST(Coordinator, Thm1ExactAtEveryShardCount) {
  for (size_t s : kShardCounts) ExpectFederatedExact<Thm1>(s, 100 + s);
}
TEST(Coordinator, Thm2ExactAtEveryShardCount) {
  for (size_t s : kShardCounts) ExpectFederatedExact<Thm2>(s, 200 + s);
}
TEST(Coordinator, BaselineExactAtEveryShardCount) {
  for (size_t s : kShardCounts) ExpectFederatedExact<Baseline>(s, 300 + s);
}
TEST(Coordinator, CountingExactAtEveryShardCount) {
  for (size_t s : kShardCounts) ExpectFederatedExact<Counting>(s, 400 + s);
}

// The exhaustive baseline answers identically, and the TA merge pulls
// exactly as deep at S = 1 (both ask the one shard for k) and strictly
// shallower once k spans shards. The coordinator's transfer counter
// agrees with the shard engines' own results_returned tallies.
TEST(Coordinator, EarlyTerminationPullsNoMoreThanExhaustive) {
  Rng rng(77);
  const auto data = test::RandomPoints1D(4000, &rng);
  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    auto ta = MakeStatic<Thm2>(data, num_shards);
    auto ex = MakeStatic<Thm2>(data, num_shards, {.exhaustive = true});
    std::vector<Point1D> got_ta, got_ex;
    for (size_t i = 0; i < 24; ++i) {
      double lo = rng.NextDouble(), hi = rng.NextDouble();
      if (lo > hi) std::swap(lo, hi);
      const Range1D q{lo, hi};
      const size_t k = 64;
      ASSERT_EQ(ta.coord->QueryInto(q, k, &got_ta),
                serve::ResultStatus::kOk);
      ASSERT_EQ(ex.coord->QueryInto(q, k, &got_ex),
                serve::ResultStatus::kOk);
      EXPECT_EQ(test::IdsOf(got_ta), test::IdsOf(got_ex))
          << "S=" << num_shards << " query " << i;
    }
    const uint64_t ta_pulled = ta.coord->stats().elements_pulled;
    const uint64_t ex_pulled = ex.coord->stats().elements_pulled;
    if (num_shards == 1) {
      EXPECT_EQ(ta_pulled, ex_pulled);
    } else {
      // At k=64 the first-round ask is under k, so on random weights
      // at least some queries must finish shallow.
      EXPECT_LT(ta_pulled, ex_pulled) << "S=" << num_shards;
    }
    EXPECT_EQ(ta.coord->stats().elements_transferred,
              ta.EngineResultsReturned())
        << "S=" << num_shards;
    EXPECT_EQ(ex.coord->stats().elements_transferred,
              ex.EngineResultsReturned())
        << "S=" << num_shards;
  }
}

TEST(Coordinator, ZeroKAndEmptyRangeAreOkAndEmpty) {
  Rng rng(9);
  const auto data = test::RandomPoints1D(400, &rng);
  auto fed = MakeStatic<Thm1>(data, 3);
  std::vector<Point1D> out;
  EXPECT_EQ(fed.coord->QueryInto(Range1D{0.2, 0.8}, 0, &out),
            serve::ResultStatus::kOk);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(fed.coord->QueryInto(Range1D{2.0, 3.0}, 10, &out),
            serve::ResultStatus::kOk);
  EXPECT_TRUE(out.empty());
  // k beyond the matching population: the whole population, exactly.
  EXPECT_EQ(fed.coord->QueryInto(Range1D{-1.0, 2.0}, 1000, &out),
            serve::ResultStatus::kOk);
  EXPECT_EQ(test::IdsOf(out),
            test::IdsOf(test::BruteTopK<Range1DProblem>(
                data, Range1D{-1.0, 2.0}, 1000)));
}

// --- Result cache --------------------------------------------------------

TEST(Coordinator, CacheHitSkipsFanoutAndStaysExact) {
  Rng rng(21);
  const auto data = test::RandomPoints1D(800, &rng);
  auto fed = MakeStatic<Thm2>(data, 3, {.cache_entries = 64});
  const Range1D q{0.1, 0.9};
  std::vector<Point1D> first, second;
  ASSERT_EQ(fed.coord->QueryInto(q, 12, &first), serve::ResultStatus::kOk);
  EXPECT_EQ(fed.coord->stats().cache_misses, 1u);
  const uint64_t fetches = fed.coord->stats().shard_fetches;
  ASSERT_EQ(fed.coord->QueryInto(q, 12, &second), serve::ResultStatus::kOk);
  EXPECT_EQ(fed.coord->stats().cache_hits, 1u);
  EXPECT_EQ(fed.coord->stats().shard_fetches, fetches);  // no fan-out
  EXPECT_EQ(test::IdsOf(second), test::IdsOf(first));
  // Same predicate, different k: distinct cache key, not a false hit.
  ASSERT_EQ(fed.coord->QueryInto(q, 5, &second), serve::ResultStatus::kOk);
  EXPECT_EQ(fed.coord->stats().cache_hits, 1u);
  EXPECT_EQ(test::IdsOf(second),
            test::IdsOf(test::BruteTopK<Range1DProblem>(data, q, 5)));
}

// --- Epoch mode: publishes invalidate, answers track snapshots -----------

std::vector<Point1D> ShardPoints(uint64_t shard, uint64_t version,
                                 size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point1D> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.NextDouble(),
                   rng.NextDouble() * 1000.0,
                   shard * 1000000 + version * 10000 + i + 1});
  }
  return pts;
}

DynTopK BuildDyn(const std::vector<Point1D>& data, uint64_t seed) {
  ReductionOptions opts;
  opts.seed = seed;
  return DynTopK(data, opts);
}

TEST(Coordinator, PublishInvalidatesCacheAndAnswersTrackEpochs) {
  const size_t kShards = 3;
  std::vector<std::vector<Point1D>> v1(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    v1[s] = ShardPoints(s, 1, 300, 500 + s);
  }
  std::vector<std::unique_ptr<serve::EpochManager<DynTopK>>> managers;
  std::vector<std::unique_ptr<serve::QueryEngine<DynTopK>>> engines;
  std::vector<federate::Coordinator<DynTopK>::Shard> shards;
  for (size_t s = 0; s < kShards; ++s) {
    managers.push_back(std::make_unique<serve::EpochManager<DynTopK>>(
        BuildDyn(v1[s], 600 + s)));
    engines.push_back(std::make_unique<serve::QueryEngine<DynTopK>>(
        managers.back().get(),
        typename serve::QueryEngine<DynTopK>::Options{}));
    shards.push_back({engines.back().get(), managers.back().get()});
  }
  federate::Coordinator<DynTopK> coord(std::move(shards),
                                       {.cache_entries = 32});

  auto union_of = [&](const std::vector<std::vector<Point1D>>& per_shard) {
    std::vector<Point1D> all;
    for (const auto& part : per_shard) {
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  };

  const Range1D q{0.2, 0.9};
  const size_t k = 25;
  std::vector<Point1D> out;
  ASSERT_EQ(coord.QueryInto(q, k, &out), serve::ResultStatus::kOk);
  EXPECT_EQ(test::IdsOf(out),
            test::IdsOf(test::BruteTopK<Range1DProblem>(union_of(v1), q, k)));
  EXPECT_EQ(coord.last_epoch_seqs(),
            (std::vector<uint64_t>{1, 1, 1}));

  // Warm hit: same seqs, no fan-out.
  const uint64_t fetches = coord.stats().shard_fetches;
  ASSERT_EQ(coord.QueryInto(q, k, &out), serve::ResultStatus::kOk);
  EXPECT_EQ(coord.stats().cache_hits, 1u);
  EXPECT_EQ(coord.stats().shard_fetches, fetches);

  // Publish a new snapshot on shard 1: the cached seq vector is stale,
  // the entry invalidates, and the fresh answer is exact over the new
  // union with the bumped seq recorded.
  auto v2 = v1;
  v2[1] = ShardPoints(1, 2, 350, 700);
  managers[1]->Publish(BuildDyn(v2[1], 701));
  ASSERT_EQ(coord.QueryInto(q, k, &out), serve::ResultStatus::kOk);
  EXPECT_EQ(coord.stats().cache_invalidations, 1u);
  EXPECT_EQ(test::IdsOf(out),
            test::IdsOf(test::BruteTopK<Range1DProblem>(union_of(v2), q, k)));
  EXPECT_EQ(coord.last_epoch_seqs(),
            (std::vector<uint64_t>{1, 2, 1}));

  // And the refilled entry serves hits again at the new seqs.
  ASSERT_EQ(coord.QueryInto(q, k, &out), serve::ResultStatus::kOk);
  EXPECT_EQ(coord.stats().cache_hits, 2u);
}

// --- Partial failure -----------------------------------------------------

TEST(Coordinator, FaultedShardDegradesToExactSurvivorAnswer) {
  Rng rng(31);
  const auto data = test::RandomPoints1D(1200, &rng);
  const size_t kShards = 4;
  auto fed = MakeStatic<Thm1>(data, kShards, {.cache_entries = 16});
  auto parts = federate::PartitionById(data, kShards);
  std::vector<Point1D> survivors;
  for (size_t s = 0; s < kShards; ++s) {
    if (s == 2) continue;
    survivors.insert(survivors.end(), parts[s].begin(), parts[s].end());
  }

  const Range1D q{0.05, 0.95};
  std::vector<Point1D> out;
  ASSERT_EQ(fed.coord->QueryInto(q, 20, &out), serve::ResultStatus::kOk);

  fed.coord->SetShardHealthy(2, false);
  EXPECT_FALSE(fed.coord->shard_healthy(2));
  // Degraded, but EXACT over the surviving shards — and the warm cache
  // entry (computed over all 4 shards) must NOT be served.
  ASSERT_EQ(fed.coord->QueryInto(q, 20, &out),
            serve::ResultStatus::kDegraded);
  EXPECT_EQ(test::IdsOf(out),
            test::IdsOf(test::BruteTopK<Range1DProblem>(survivors, q, 20)));

  fed.coord->SetShardHealthy(2, true);
  ASSERT_EQ(fed.coord->QueryInto(q, 20, &out), serve::ResultStatus::kOk);
  EXPECT_EQ(test::IdsOf(out),
            test::IdsOf(test::BruteTopK<Range1DProblem>(data, q, 20)));

  // Per-status tallies surface in the metrics snapshot (the JSON view).
  const serve::MetricsSnapshot& m = fed.coord->metrics();
  EXPECT_EQ(m.ok, 2u);
  EXPECT_EQ(m.degraded, 1u);
  EXPECT_NE(serve::ToJson(m).find("\"degraded\":1"), std::string::npos);
}

TEST(Coordinator, AllShardsUnhealthyIsEmptyDegraded) {
  Rng rng(32);
  const auto data = test::RandomPoints1D(200, &rng);
  auto fed = MakeStatic<Thm1>(data, 2);
  fed.coord->SetShardHealthy(0, false);
  fed.coord->SetShardHealthy(1, false);
  std::vector<Point1D> out{{0.0, 0.0, 99}};
  EXPECT_EQ(fed.coord->QueryInto(Range1D{0.0, 1.0}, 5, &out),
            serve::ResultStatus::kDegraded);
  EXPECT_TRUE(out.empty());
}

// The empty degraded answer still names the snapshots it stands for:
// a publish that lands before every shard goes unhealthy must show up
// in last_epoch_seqs(), not the previous answer's seqs.
TEST(Coordinator, AllShardsUnhealthyReportsCurrentSeqs) {
  const size_t kShards = 2;
  std::vector<std::unique_ptr<serve::EpochManager<DynTopK>>> managers;
  std::vector<std::unique_ptr<serve::QueryEngine<DynTopK>>> engines;
  std::vector<federate::Coordinator<DynTopK>::Shard> shards;
  for (size_t s = 0; s < kShards; ++s) {
    managers.push_back(std::make_unique<serve::EpochManager<DynTopK>>(
        BuildDyn(ShardPoints(s, 1, 100, 800 + s), 810 + s)));
    engines.push_back(std::make_unique<serve::QueryEngine<DynTopK>>(
        managers.back().get(),
        typename serve::QueryEngine<DynTopK>::Options{}));
    shards.push_back({engines.back().get(), managers.back().get()});
  }
  federate::Coordinator<DynTopK> coord(std::move(shards), {});
  const Range1D q{0.0, 1.0};
  std::vector<Point1D> out;
  ASSERT_EQ(coord.QueryInto(q, 5, &out), serve::ResultStatus::kOk);
  EXPECT_EQ(coord.last_epoch_seqs(), (std::vector<uint64_t>{1, 1}));

  managers[0]->Publish(BuildDyn(ShardPoints(0, 2, 100, 820), 821));
  coord.SetShardHealthy(0, false);
  coord.SetShardHealthy(1, false);
  EXPECT_EQ(coord.QueryInto(q, 5, &out), serve::ResultStatus::kDegraded);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(coord.last_epoch_seqs(), (std::vector<uint64_t>{2, 1}));
}

// A shard that degrades ITSELF (cost budget) bounds the merge: the
// coordinator's truncated answer must be an exact PREFIX of the true
// global top-k — never reordered, never wrong, just shorter.
TEST(Coordinator, BudgetDegradedAnswerIsPrefixOfGlobalTopK) {
  Rng rng(33);
  const auto data = test::RandomPoints1D(2000, &rng);
  auto fed = MakeStatic<Thm1>(data, 3, {.cost_budget = 400});
  std::vector<Point1D> out;
  bool saw_degraded = false;
  for (size_t i = 0; i < 16; ++i) {
    double lo = rng.NextDouble(), hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    const Range1D q{lo, hi};
    const size_t k = 60;
    const auto status = fed.coord->QueryInto(q, k, &out);
    const auto want = test::BruteTopK<Range1DProblem>(data, q, k);
    const auto want_ids = test::IdsOf(want);
    const auto got_ids = test::IdsOf(out);
    if (status == serve::ResultStatus::kOk) {
      EXPECT_EQ(got_ids, want_ids) << "query " << i;
    } else {
      saw_degraded = true;
      ASSERT_LE(got_ids.size(), want_ids.size()) << "query " << i;
      for (size_t j = 0; j < got_ids.size(); ++j) {
        EXPECT_EQ(got_ids[j], want_ids[j]) << "query " << i << " pos " << j;
      }
    }
  }
  EXPECT_TRUE(saw_degraded) << "budget 400 never degraded — raise n?";
}

TEST(Coordinator, DeadlineExceededPropagates) {
  Rng rng(34);
  const auto data = test::RandomPoints1D(500, &rng);
  auto fed = MakeStatic<Thm1>(data, 2, {.deadline_ns = 1});
  std::vector<Point1D> out;
  EXPECT_EQ(fed.coord->QueryInto(Range1D{0.0, 1.0}, 10, &out),
            serve::ResultStatus::kDeadlineExceeded);
  // Whatever survived truncation is an exact prefix of the global
  // top-k (usually empty: a 1 ns deadline is late before any work).
  const auto want_ids = test::IdsOf(
      test::BruteTopK<Range1DProblem>(data, Range1D{0.0, 1.0}, 10));
  const auto got_ids = test::IdsOf(out);
  ASSERT_LE(got_ids.size(), want_ids.size());
  for (size_t j = 0; j < got_ids.size(); ++j) {
    EXPECT_EQ(got_ids[j], want_ids[j]) << "pos " << j;
  }
  EXPECT_EQ(fed.coord->metrics().deadline_exceeded, 1u);
}

// --- Live publisher: every answer exact for the snapshots it reports ----

// A writer republishes per-shard snapshots while the main thread
// queries through the coordinator. The coordinator pairs each answer
// with last_epoch_seqs(); the answer must be EXACTLY the brute-force
// top-k over the union of those per-shard versions — stable window or
// exhaustive fallback alike. This is the TSan target for the module.
TEST(Coordinator, ServesExactSnapshotsUnderConcurrentPublishes) {
  const size_t kShards = 2;
  const uint64_t kVersions = 8;
  // versions[s][v] backs seq v+1 on shard s.
  std::vector<std::vector<std::vector<Point1D>>> versions(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    for (uint64_t v = 0; v < kVersions; ++v) {
      versions[s].push_back(
          ShardPoints(s, v + 1, 150 + 20 * v, 900 + 10 * s + v));
    }
  }
  std::vector<std::unique_ptr<serve::EpochManager<DynTopK>>> managers;
  std::vector<std::unique_ptr<serve::QueryEngine<DynTopK>>> engines;
  std::vector<federate::Coordinator<DynTopK>::Shard> shards;
  for (size_t s = 0; s < kShards; ++s) {
    managers.push_back(std::make_unique<serve::EpochManager<DynTopK>>(
        BuildDyn(versions[s][0], 950 + s)));
    engines.push_back(std::make_unique<serve::QueryEngine<DynTopK>>(
        managers.back().get(),
        typename serve::QueryEngine<DynTopK>::Options{}));
    shards.push_back({engines.back().get(), managers.back().get()});
  }
  federate::Coordinator<DynTopK> coord(std::move(shards),
                                       {.cache_entries = 8});

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (uint64_t v = 1; v < kVersions; ++v) {
      for (size_t s = 0; s < kShards; ++s) {
        managers[s]->Publish(
            BuildDyn(versions[s][v], 970 + 10 * s + v));
      }
    }
    writer_done.store(true, std::memory_order_release);
  });

  const Range1D queries[] = {
      {0.0, 1.0}, {0.1, 0.6}, {0.4, 0.9}, {0.25, 0.35}};
  std::vector<Point1D> out;
  size_t validated = 0;
  auto run_one = [&](size_t i) {
    const Range1D q = queries[i % 4];
    const size_t k = 16 + (i % 3) * 8;
    ASSERT_EQ(coord.QueryInto(q, k, &out), serve::ResultStatus::kOk);
    const std::vector<uint64_t>& seqs = coord.last_epoch_seqs();
    std::vector<Point1D> snapshot_union;
    for (size_t s = 0; s < kShards; ++s) {
      ASSERT_GE(seqs[s], 1u);
      ASSERT_LE(seqs[s], kVersions);
      const auto& part = versions[s][seqs[s] - 1];
      snapshot_union.insert(snapshot_union.end(), part.begin(), part.end());
    }
    EXPECT_EQ(test::IdsOf(out),
              test::IdsOf(test::BruteTopK<Range1DProblem>(
                  snapshot_union, q, k)))
        << "query " << i << " seqs " << seqs[0] << "," << seqs[1];
    ++validated;
  };
  size_t i = 0;
  while (!writer_done.load(std::memory_order_acquire)) {
    run_one(i++);
  }
  writer.join();
  // A few more after the writer quiesced: must land on the final
  // snapshots exactly.
  for (size_t j = 0; j < 8; ++j) run_one(i++);
  EXPECT_EQ(coord.last_epoch_seqs(),
            (std::vector<uint64_t>{kVersions, kVersions}));
  EXPECT_GE(validated, 8u);
  EXPECT_EQ(coord.metrics().ok, coord.metrics().queries);
}

}  // namespace
}  // namespace topk
