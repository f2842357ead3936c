// The serving layer's graceful-degradation contract: staged budgeted
// queries, per-request deadlines and cost budgets, bounded-batch
// admission control, cooperative cancellation — and the per-slot
// ResultStatus semantics (see serve/result.h). Also the concurrency
// story: two engines sharing one Metrics registry (exercised under
// TSan via CI's -R serve filter).

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/budgeted_query.h"
#include "core/scan_topk.h"
#include "range1d/direct_topk.h"
#include "range1d/point1d.h"
#include "serve/engine.h"
#include "serve/metrics.h"
#include "serve/result.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::HeapSelectTopK;
using range1d::Point1D;
using range1d::Range1D;
using range1d::Range1DProblem;
using serve::MetricsSnapshot;
using serve::ResultStatus;

using Scan = ScanTopK<Range1DProblem>;

// First `m` entries of `full` — the heaviest-first prefix a degraded
// result must equal.
std::vector<uint64_t> PrefixIds(const std::vector<Point1D>& full, size_t m) {
  std::vector<uint64_t> ids = test::IdsOf(full);
  if (ids.size() > m) ids.resize(m);
  return ids;
}

// --- BudgetedTopKInto -----------------------------------------------------

TEST(BudgetedTopKInto, RunsToCompletionWhenNeverStopped) {
  Rng rng(1);
  const auto data = test::RandomPoints1D(800, &rng);
  Scan scan(data);
  const Range1D q{0.1, 0.9};
  Scratch scratch;
  std::vector<Point1D> out;
  auto r = BudgetedTopKInto(scan, q, 8, [] { return false; }, &scratch, &out);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.stages, 4u);  // k' = 1, 2, 4, 8
  EXPECT_EQ(test::IdsOf(out),
            test::IdsOf(test::BruteTopK<Range1DProblem>(data, q, 8)));
}

TEST(BudgetedTopKInto, StopAfterAnyStageYieldsCorrectPrefix) {
  Rng rng(2);
  const auto data = test::RandomPoints1D(800, &rng);
  Scan scan(data);
  const Range1D q{0.0, 1.0};
  const auto want = test::BruteTopK<Range1DProblem>(data, q, 32);
  Scratch scratch;
  std::vector<Point1D> out;
  for (size_t stop_after : {size_t{1}, size_t{2}, size_t{3}}) {
    size_t stages = 0;
    auto r = BudgetedTopKInto(
        scan, q, 32, [&] { return ++stages >= stop_after; }, &scratch, &out);
    EXPECT_FALSE(r.complete);
    EXPECT_EQ(r.stages, stop_after);
    // Stage s answered top-2^{s-1}: a literal prefix of the true top-k.
    EXPECT_EQ(test::IdsOf(out),
              PrefixIds(want, size_t{1} << (stop_after - 1)));
  }
}

TEST(BudgetedTopKInto, SmallAnswersCompleteRegardlessOfStop) {
  Rng rng(3);
  const auto data = test::RandomPoints1D(100, &rng);
  Scan scan(data);
  Scratch scratch;
  std::vector<Point1D> out;
  // k = 0 and a predicate matching nothing: complete immediately, and
  // the stop predicate (always true) never turns them into failures.
  auto zero = BudgetedTopKInto(scan, Range1D{0.0, 1.0}, 0,
                               [] { return true; }, &scratch, &out);
  EXPECT_TRUE(zero.complete);
  EXPECT_TRUE(out.empty());
  auto none = BudgetedTopKInto(scan, Range1D{2.0, 3.0}, 5,
                               [] { return true; }, &scratch, &out);
  EXPECT_TRUE(none.complete);
  EXPECT_TRUE(out.empty());
  // More k than matches: the structure runs dry (a stage returns fewer
  // than k' elements) and the answer completes without reaching k.
  auto all = BudgetedTopKInto(scan, Range1D{0.0, 1.0}, 1000,
                              [] { return false; }, &scratch, &out);
  EXPECT_TRUE(all.complete);
  EXPECT_EQ(out.size(), 100u);
}

// --- QueryEngine: budgets -------------------------------------------------

struct Fixture {
  std::vector<Point1D> data;
  explicit Fixture(size_t n, uint64_t seed) {
    Rng rng(seed);
    data = test::RandomPoints1D(n, &rng);
  }
};

TEST(QueryEngineFaults, CostBudgetDegradesToCorrectPrefix) {
  Fixture fx(400, 11);
  Scan scan(fx.data);
  serve::Metrics metrics;
  serve::QueryEngine<Scan> engine(&scan, {.num_threads = 1}, &metrics);

  const Range1D q{0.0, 1.0};
  const auto want = test::BruteTopK<Range1DProblem>(fx.data, q, 64);
  // One scan costs > n work units, so budget 1 stops after stage 1
  // (top-1) and budget 3n admits three stages (top-4); budget 0 means
  // unlimited.
  const uint64_t n = fx.data.size();
  std::vector<serve::Request<Range1D>> reqs = {
      {q, 64, /*cost_budget=*/1},
      {q, 64, /*cost_budget=*/3 * n},
      {q, 64, /*cost_budget=*/0},
  };
  auto results = engine.QueryBatch(reqs);
  ASSERT_EQ(results.size(), 3u);

  EXPECT_EQ(results[0].status, ResultStatus::kDegraded);
  EXPECT_EQ(test::IdsOf(results[0].elements), PrefixIds(want, 1));
  EXPECT_EQ(results[1].status, ResultStatus::kDegraded);
  EXPECT_FALSE(results[1].elements.empty());
  EXPECT_EQ(test::IdsOf(results[1].elements),
            PrefixIds(want, results[1].elements.size()));
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(test::IdsOf(results[2].elements), test::IdsOf(want));

  const MetricsSnapshot m = metrics.Snapshot();
  EXPECT_EQ(m.queries, 3u);
  EXPECT_EQ(m.ok, 1u);
  EXPECT_EQ(m.degraded, 2u);
  EXPECT_EQ(m.shed, 0u);
}

TEST(QueryEngineFaults, GenerousBudgetStaysExact) {
  Fixture fx(500, 12);
  Scan scan(fx.data);
  serve::QueryEngine<Scan> engine(&scan, {.num_threads = 2});
  std::vector<serve::Request<Range1D>> reqs;
  Rng rng(13);
  for (int i = 0; i < 12; ++i) {
    double a = rng.NextDouble(), b = rng.NextDouble();
    if (a > b) std::swap(a, b);
    reqs.push_back({{a, b}, 1 + static_cast<size_t>(i),
                    /*cost_budget=*/1u << 24});
  }
  auto results = engine.QueryBatch(reqs);
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_TRUE(results[i].ok()) << i;
    EXPECT_EQ(test::IdsOf(results[i].elements),
              test::IdsOf(test::BruteTopK<Range1DProblem>(
                  fx.data, reqs[i].predicate, reqs[i].k)))
        << i;
  }
}

// --- QueryEngine: deadlines -----------------------------------------------

TEST(QueryEngineFaults, ExpiredDeadlineReturnsFlaggedEmptyPrefix) {
  Fixture fx(300, 14);
  Scan scan(fx.data);
  serve::Metrics metrics;
  serve::QueryEngine<Scan> engine(&scan, {.num_threads = 1}, &metrics);
  // 1 ns after batch start is in the past by the time any worker picks
  // the request up; a sibling request with no deadline must be exact.
  std::vector<serve::Request<Range1D>> reqs = {
      {{0.0, 1.0}, 10, /*cost_budget=*/0, /*deadline_ns=*/1},
      {{0.0, 1.0}, 10},
  };
  auto results = engine.QueryBatch(reqs);
  EXPECT_EQ(results[0].status, ResultStatus::kDeadlineExceeded);
  EXPECT_TRUE(results[0].elements.empty());
  EXPECT_TRUE(results[1].ok());

  const MetricsSnapshot m = metrics.Snapshot();
  EXPECT_EQ(m.deadline_exceeded, 1u);
  EXPECT_EQ(m.ok, 1u);
  // The expired request touched the structure zero times: exactly one
  // full scan was charged.
  EXPECT_EQ(m.stats.full_scans, 1u);
  EXPECT_EQ(m.stats.nodes_visited, fx.data.size());
}

// --- QueryEngine: admission control and cancellation ----------------------

TEST(QueryEngineFaults, OverflowingBatchIsShedWithZeroStructureTouches) {
  Fixture fx(250, 15);
  Scan scan(fx.data);
  serve::Metrics metrics;
  serve::QueryEngine<Scan> engine(
      &scan, {.num_threads = 2, .max_batch = 2}, &metrics);
  std::vector<serve::Request<Range1D>> reqs(6, {{0.0, 1.0}, 5});
  auto results = engine.QueryBatch(reqs);
  ASSERT_EQ(results.size(), 6u);
  const auto want = test::BruteTopK<Range1DProblem>(fx.data, {0.0, 1.0}, 5);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(results[i].ok()) << i;
    EXPECT_EQ(test::IdsOf(results[i].elements), test::IdsOf(want));
  }
  for (size_t i = 2; i < 6; ++i) {
    EXPECT_EQ(results[i].status, ResultStatus::kShed) << i;
    EXPECT_TRUE(results[i].elements.empty()) << i;
  }
  const MetricsSnapshot m = metrics.Snapshot();
  EXPECT_EQ(m.queries, 2u);  // shed slots are not "served"
  EXPECT_EQ(m.shed, 4u);
  EXPECT_EQ(m.ok, 2u);
  EXPECT_EQ(m.latency.count(), 2u);
  // ScanTopK charges exactly n nodes per executed query — the shed
  // slots contributed nothing.
  EXPECT_EQ(m.stats.nodes_visited, 2 * fx.data.size());
  EXPECT_EQ(m.stats.full_scans, 2u);
}

TEST(QueryEngineFaults, CancelShedsTheNextBatchThenClears) {
  Fixture fx(200, 16);
  Scan scan(fx.data);
  serve::Metrics metrics;
  serve::QueryEngine<Scan> engine(&scan, {.num_threads = 2}, &metrics);
  std::vector<serve::Request<Range1D>> reqs(4, {{0.0, 1.0}, 3});

  engine.Cancel();
  EXPECT_TRUE(engine.cancel_requested());
  auto cancelled = engine.QueryBatch(reqs);
  for (const auto& r : cancelled) {
    EXPECT_EQ(r.status, ResultStatus::kShed);
  }
  EXPECT_EQ(metrics.Snapshot().stats.nodes_visited, 0u);

  // The flag cleared with the batch: the next one serves normally.
  EXPECT_FALSE(engine.cancel_requested());
  auto served = engine.QueryBatch(reqs);
  const auto want = test::BruteTopK<Range1DProblem>(fx.data, {0.0, 1.0}, 3);
  for (const auto& r : served) {
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(test::IdsOf(r.elements), test::IdsOf(want));
  }
  const MetricsSnapshot m = metrics.Snapshot();
  EXPECT_EQ(m.shed, 4u);
  EXPECT_EQ(m.ok, 4u);
  EXPECT_EQ(m.queries, 4u);
}

// --- Metrics: status accounting and JSON ----------------------------------

TEST(QueryEngineFaults, StatusCountsPartitionTheBatch) {
  Fixture fx(300, 17);
  Scan scan(fx.data);
  serve::Metrics metrics;
  serve::QueryEngine<Scan> engine(
      &scan, {.num_threads = 1, .max_batch = 3}, &metrics);
  std::vector<serve::Request<Range1D>> reqs = {
      {{0.0, 1.0}, 8},                                       // ok
      {{0.0, 1.0}, 8, /*cost_budget=*/1},                    // degraded
      {{0.0, 1.0}, 8, /*cost_budget=*/0, /*deadline_ns=*/1}, // late
      {{0.0, 1.0}, 8},                                       // shed
  };
  engine.QueryBatch(reqs);
  const MetricsSnapshot m = metrics.Snapshot();
  EXPECT_EQ(m.ok, 1u);
  EXPECT_EQ(m.degraded, 1u);
  EXPECT_EQ(m.deadline_exceeded, 1u);
  EXPECT_EQ(m.shed, 1u);
  EXPECT_EQ(m.ok + m.degraded + m.deadline_exceeded, m.queries);

  const std::string json = metrics.ToJson();
  EXPECT_NE(json.find("\"results\":{\"ok\":1,\"degraded\":1,\"shed\":1,"
                      "\"deadline_exceeded\":1}"),
            std::string::npos)
      << json;
}

TEST(ResultStatusNames, CoverEveryStatus) {
  EXPECT_STREQ(serve::ToString(ResultStatus::kOk), "ok");
  EXPECT_STREQ(serve::ToString(ResultStatus::kDegraded), "degraded");
  EXPECT_STREQ(serve::ToString(ResultStatus::kShed), "shed");
  EXPECT_STREQ(serve::ToString(ResultStatus::kDeadlineExceeded),
               "deadline_exceeded");
}

// --- Shared Metrics across engines (the TSan target) ----------------------

// Two engines with private thread pools absorb into ONE registry from
// two caller threads at once. Totals must be exact — TSan (CI's serve
// filter) additionally proves the absence of data races on the shared
// registry.
TEST(SharedMetrics, TwoEnginesAbsorbConcurrently) {
  Fixture fx(600, 18);
  Scan scan(fx.data);
  HeapSelectTopK direct(fx.data);
  serve::Metrics shared;
  serve::QueryEngine<Scan> e1(&scan, {.num_threads = 2}, &shared);
  serve::QueryEngine<HeapSelectTopK> e2(&direct, {.num_threads = 2},
                                        &shared);
  std::vector<serve::Request<Range1D>> reqs(8, {{0.2, 0.8}, 4});

  constexpr int kBatches = 6;
  std::thread t1([&] {
    for (int i = 0; i < kBatches; ++i) e1.QueryBatch(reqs);
  });
  std::thread t2([&] {
    for (int i = 0; i < kBatches; ++i) e2.QueryBatch(reqs);
  });
  t1.join();
  t2.join();

  const MetricsSnapshot m = shared.Snapshot();
  EXPECT_EQ(m.batches, 2u * kBatches);
  EXPECT_EQ(m.queries, 2u * kBatches * reqs.size());
  EXPECT_EQ(m.ok, m.queries);
  EXPECT_EQ(m.latency.count(), m.queries);
  // ScanTopK's half of the work is exactly n nodes per query.
  EXPECT_GE(m.stats.nodes_visited,
            uint64_t{kBatches} * reqs.size() * fx.data.size());
}

}  // namespace
}  // namespace topk
