// Epoch/snapshot serving: the EpochManager reader/writer protocol, and
// a QueryEngine serving brute-force-exact answers WHILE a mutator
// thread applies Insert/Erase batches and republishes — the tentpole
// contract: readers never block on the writer, every batch's answers
// are exactly the published snapshot it pinned, and retired epochs free
// once their last in-flight batch drains (leak-checked under ASan; the
// whole file runs under TSan via the ci tsan job's `-R serve` sweep).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/reduction_options.h"
#include "core/sampled_topk.h"
#include "core/scan_topk.h"
#include "range1d/dyn_pst.h"
#include "range1d/dyn_range_max.h"
#include "range1d/point1d.h"
#include "serve/engine.h"
#include "serve/epoch.h"
#include "serve/metrics.h"
#include "serve/result.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::DynamicPst;
using range1d::DynamicRangeMax;
using range1d::Point1D;
using range1d::Range1D;
using range1d::Range1DProblem;

// The paper's dynamic Theorem 2 instantiation (treap PST + augmented
// treap range max) — what the mutator actually mutates.
using DynTopK = SampledTopK<Range1DProblem, DynamicPst, DynamicRangeMax>;
using Scan = ScanTopK<Range1DProblem>;

static_assert(serve::ShareableTopKStructure<DynTopK>);

std::vector<serve::Request<Range1D>> MakeRequests(size_t count,
                                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<serve::Request<Range1D>> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    double lo = rng.NextDouble(), hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    const size_t k = (i % 7 == 0) ? 150 : 1 + i % 12;
    requests.push_back({{lo, hi}, k});
  }
  return requests;
}

// --- EpochManager protocol ----------------------------------------------

TEST(EpochManager, PinsHoldRetiredEpochsUntilReleased) {
  Rng rng(5);
  std::vector<Point1D> v1 = test::RandomPoints1D(50, &rng);
  std::vector<Point1D> v2 = test::RandomPoints1D(80, &rng);
  serve::EpochManager<Scan> epochs{Scan(v1)};
  EXPECT_EQ(epochs.current_seq(), 1u);
  EXPECT_EQ(epochs.live_epochs(), 1u);

  const size_t slot = epochs.RegisterReader();
  auto pin = epochs.Acquire(slot);
  EXPECT_EQ(pin.seq(), 1u);
  EXPECT_EQ(pin.get()->size(), v1.size());

  // Publishing under a live pin retires but must NOT free epoch 1.
  EXPECT_EQ(epochs.Publish(Scan(v2)), 2u);
  EXPECT_EQ(epochs.current_seq(), 2u);
  EXPECT_EQ(epochs.live_epochs(), 2u);
  // The pinned (retired) epoch still answers from its own snapshot.
  EXPECT_EQ(pin.get()->size(), v1.size());
  EXPECT_EQ(test::IdsOf(topk::Query(*pin.get(), {0.0, 1.0}, 5)),
            test::IdsOf(test::BruteTopK<Range1DProblem>(v1, {0.0, 1.0},
                                                        5)));

  // A fresh Acquire on another slot sees the new epoch.
  const size_t slot2 = epochs.RegisterReader();
  auto pin2 = epochs.Acquire(slot2);
  EXPECT_EQ(pin2.seq(), 2u);
  EXPECT_EQ(pin2.get()->size(), v2.size());
  pin2.Release();

  // Still pinned: nothing to collect. Released: epoch 1 frees.
  EXPECT_EQ(epochs.CollectRetired(), 0u);
  pin.Release();
  EXPECT_TRUE(pin.empty());
  EXPECT_EQ(epochs.CollectRetired(), 1u);
  EXPECT_EQ(epochs.live_epochs(), 1u);
}

TEST(EpochManager, RepinAfterReleaseTracksCurrent) {
  Rng rng(6);
  serve::EpochManager<Scan> epochs(Scan(test::RandomPoints1D(20, &rng)));
  const size_t slot = epochs.RegisterReader();
  for (uint64_t want = 1; want <= 5; ++want) {
    auto pin = epochs.Acquire(slot);
    EXPECT_EQ(pin.seq(), want);
    pin.Release();
    epochs.Publish(Scan(test::RandomPoints1D(20 + want, &rng)));
  }
  // No pins live: every retired epoch collects.
  epochs.CollectRetired();
  EXPECT_EQ(epochs.live_epochs(), 1u);
}

// --- Engine in epoch mode, single-threaded rotation ----------------------

TEST(EpochEngine, BatchesTrackPublishedSnapshotsExactly) {
  Rng rng(31);
  std::vector<Point1D> data = test::RandomPoints1D(3000, &rng);
  ReductionOptions opts;
  opts.seed = 32;
  serve::EpochManager<DynTopK> epochs(DynTopK(data, opts));
  serve::Metrics metrics;
  serve::QueryEngine<DynTopK> engine(&epochs, {.num_threads = 2},
                                     &metrics);
  const auto requests = MakeRequests(48, 33);

  std::vector<std::vector<Point1D>> snapshots(1, data);  // seq-1 -> [0]
  std::vector<serve::QueryEngine<DynTopK>::Result> results;
  uint64_t next_id = 500'000;
  for (int round = 0; round < 6; ++round) {
    engine.QueryBatchInto(requests, &results);
    const uint64_t seq = engine.last_batch_epoch();
    ASSERT_EQ(seq, static_cast<uint64_t>(round + 1));
    const std::vector<Point1D>& snap = snapshots[seq - 1];
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(results[i].ok());
      ASSERT_EQ(test::IdsOf(results[i].elements),
                test::IdsOf(test::BruteTopK<Range1DProblem>(
                    snap, requests[i].predicate, requests[i].k)))
          << "round " << round << " request " << i;
    }
    // Mutate a copy through the DYNAMIC path and publish it: the next
    // batch must see exactly this snapshot.
    std::vector<Point1D> next = snapshots.back();
    ReductionOptions ropts;
    ropts.seed = 1000 + static_cast<uint64_t>(round);
    DynTopK shadow(next, ropts);
    for (int u = 0; u < 50; ++u) {
      if (!next.empty() && u % 2 == 0) {
        const size_t victim = rng.Below(next.size());
        shadow.Erase(next[victim]);
        next[victim] = next.back();
        next.pop_back();
      } else {
        const Point1D e{rng.NextDouble(), rng.NextDouble() * 1e6,
                        next_id++};
        shadow.Insert(e);
        next.push_back(e);
      }
    }
    snapshots.push_back(std::move(next));
    epochs.Publish(std::move(shadow));
  }
  // All batches drained (pins are per-batch): everything retired frees.
  epochs.CollectRetired();
  EXPECT_EQ(epochs.live_epochs(), 1u);
  EXPECT_EQ(metrics.Snapshot().queries, 6 * requests.size());
}

// --- The tentpole: serving DURING mutation -------------------------------

// A live mutator thread republishes mutated snapshots as fast as it can
// while the engine (2+ workers) serves batches. Every request of every
// batch must be brute-force-exact against the snapshot of the epoch the
// batch pinned; afterwards the retired chain drains to exactly one live
// epoch. Runs under TSan (ci tsan job, -R serve) and TOPK_AUDIT.
TEST(EpochEngine, ConcurrentMutatorServesBruteForceExactAnswers) {
  Rng rng(71);
  const std::vector<Point1D> initial = test::RandomPoints1D(2500, &rng);
  ReductionOptions opts;
  opts.seed = 72;
  serve::EpochManager<DynTopK> epochs(DynTopK(initial, opts));

  // seq -> the element multiset of that epoch. The writer records the
  // snapshot BEFORE Publish makes it reachable, so a reader can always
  // look up whatever epoch it pinned.
  std::mutex mu;
  std::map<uint64_t, std::vector<Point1D>> snapshots;
  snapshots[1] = initial;

  serve::QueryEngine<DynTopK> engine(&epochs, {.num_threads = 3});
  const auto requests = MakeRequests(40, 73);

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    Rng mrng(74);
    std::vector<Point1D> live = initial;
    uint64_t next_id = 900'000;
    uint64_t seq = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      // Apply one update batch through the dynamic path on a shadow
      // built from the last published state.
      ReductionOptions sopts;
      sopts.seed = 75 + seq;
      DynTopK shadow(live, sopts);
      for (int u = 0; u < 60; ++u) {
        if (!live.empty() && mrng.Bernoulli(0.5)) {
          const size_t victim = mrng.Below(live.size());
          shadow.Erase(live[victim]);
          live[victim] = live.back();
          live.pop_back();
        } else {
          const Point1D e{mrng.NextDouble(), mrng.NextDouble() * 1e6,
                          next_id++};
          shadow.Insert(e);
          live.push_back(e);
        }
      }
      ++seq;
      {
        const std::lock_guard<std::mutex> lock(mu);
        snapshots[seq] = live;
      }
      const uint64_t published = epochs.Publish(std::move(shadow));
      EXPECT_EQ(published, seq);
    }
  });

  std::vector<serve::QueryEngine<DynTopK>::Result> results;
  uint64_t first_seq = 0, last_seq = 0;
  for (int batch = 0; batch < 30; ++batch) {
    engine.QueryBatchInto(requests, &results);
    const uint64_t seq = engine.last_batch_epoch();
    if (batch == 0) first_seq = seq;
    last_seq = seq;
    std::vector<Point1D> snap;
    {
      const std::lock_guard<std::mutex> lock(mu);
      snap = snapshots.at(seq);
    }
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << "batch " << batch;
      ASSERT_EQ(test::IdsOf(results[i].elements),
                test::IdsOf(test::BruteTopK<Range1DProblem>(
                    snap, requests[i].predicate, requests[i].k)))
          << "batch " << batch << " epoch " << seq << " request " << i;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  mutator.join();

  // The engine pinned monotonically advancing epochs (sanity that the
  // rotation actually happened under load on multi-core machines; on a
  // single pinned core the mutator may only get a few publishes in).
  EXPECT_GE(last_seq, first_seq);

  // All pins are per-batch and every batch drained: the whole retired
  // chain frees (ASan would flag anything left at process exit).
  epochs.CollectRetired();
  EXPECT_EQ(epochs.live_epochs(), 1u);
}

}  // namespace
}  // namespace topk
