// External-memory substrate: block device, LRU buffer pool, paged
// arrays, the augmented B+-tree, the Section 5.5-style prioritized
// structure, and both reductions running entirely against counted page
// I/Os.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "em/block_device.h"
#include "em/buffer_pool.h"
#include "em/em_range1d.h"
#include "em/external_sort.h"
#include "em/paged_array.h"
#include "parallel/context.h"
#include "parallel/flat_scan.h"
#include "range1d/point1d.h"
#include "test_util.h"

namespace topk {
namespace {

using em::BlockDevice;
using em::BufferPool;
using em::EmBPlusTree;
using em::EmRange1dPrioritized;
using em::PagedArray;
using range1d::Point1D;
using range1d::Range1D;
using range1d::Range1DProblem;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

TEST(BlockDevice, ReadWriteCounts) {
  BlockDevice dev(256);
  const uint64_t p0 = dev.Allocate();
  const uint64_t p1 = dev.Allocate();
  std::vector<uint8_t> buf(256, 7);
  dev.Write(p0, buf.data());
  dev.Write(p1, buf.data());
  std::vector<uint8_t> out(256);
  dev.Read(p0, out.data());
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(dev.counters().writes, 2u);
  EXPECT_EQ(dev.counters().reads, 1u);
  dev.ResetCounters();
  EXPECT_EQ(dev.counters().total(), 0u);
}

TEST(BufferPool, CachedPageCostsNoIo) {
  BlockDevice dev(128);
  const uint64_t p = dev.Allocate();
  BufferPool pool(&dev, 4);
  {
    em::PageRef a(&pool, p);
    (void)a;
  }
  EXPECT_EQ(dev.counters().reads, 1u);
  {
    em::PageRef b(&pool, p);  // hit
    (void)b;
  }
  EXPECT_EQ(dev.counters().reads, 1u);
  EXPECT_EQ(pool.hits(), 1u);
}

TEST(BufferPool, LruEvictionAndDirtyWriteback) {
  BlockDevice dev(128);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(dev.Allocate());
  BufferPool pool(&dev, 2);
  {
    em::PageRef a(&pool, ids[0], /*mark_dirty=*/true);
    a.data()[0] = 42;
  }
  {
    em::PageRef b(&pool, ids[1]);
    (void)b;
  }
  {
    em::PageRef c(&pool, ids[2]);  // evicts ids[0] (LRU), dirty writeback
    (void)c;
  }
  EXPECT_EQ(dev.counters().writes, 1u);
  std::vector<uint8_t> out(128);
  dev.Read(ids[0], out.data());
  EXPECT_EQ(out[0], 42);
}

// The CLAUDE.md gotcha, locked in: building a fresh page goes through
// PinFresh and charges NO read (one write at eviction/flush is the whole
// Aggarwal–Vitter cost of writing a new block); re-opening an evicted
// page goes through Pin and charges exactly one read. Routing the write
// path through Pin instead silently doubles its I/O count.
TEST(BufferPool, PinChargesReadPinFreshDoesNot) {
  BlockDevice dev(128);
  const uint64_t p = dev.Allocate();
  BufferPool pool(&dev, 2);

  pool.PinFresh(p);  // brand-new block: no device read
  pool.Unpin(p);
  EXPECT_EQ(dev.counters().reads, 0u);
  EXPECT_EQ(dev.counters().writes, 0u);  // write deferred to flush

  pool.FlushAll();  // dirty write-back: the one write
  EXPECT_EQ(dev.counters().reads, 0u);
  EXPECT_EQ(dev.counters().writes, 1u);

  pool.Pin(p);  // no longer resident: exactly one read
  pool.Unpin(p);
  EXPECT_EQ(dev.counters().reads, 1u);
  EXPECT_EQ(dev.counters().writes, 1u);

  pool.Pin(p);  // resident again: a hit, no I/O
  pool.Unpin(p);
  pool.FlushAll();  // clean frame: dropped, no write
  EXPECT_EQ(dev.counters().reads, 1u);
  EXPECT_EQ(dev.counters().writes, 1u);
  EXPECT_EQ(pool.hits(), 1u);
}

using BufferPoolDeathTest = ::testing::Test;

TEST(BufferPoolDeathTest, UnpinWithoutPinAborts) {
  BlockDevice dev(128);
  const uint64_t p = dev.Allocate();
  BufferPool pool(&dev, 2);
  EXPECT_DEATH(pool.Unpin(p), "TOPK_CHECK");
}

TEST(BufferPoolDeathTest, DoubleUnpinAborts) {
  BlockDevice dev(128);
  const uint64_t p = dev.Allocate();
  BufferPool pool(&dev, 2);
  pool.Pin(p);
  pool.Unpin(p);
  EXPECT_DEATH(pool.Unpin(p), "TOPK_CHECK");
}

// Manually unpinning a page that a live PageRef still guards makes the
// ref's destructor the second Unpin — the classic RAII misuse, caught
// by the same pin-ledger check.
TEST(BufferPoolDeathTest, PageRefDoubleUnpinAborts) {
  BlockDevice dev(128);
  const uint64_t p = dev.Allocate();
  BufferPool pool(&dev, 2);
  EXPECT_DEATH(
      {
        em::PageRef ref(&pool, p);
        pool.Unpin(p);  // steals the ref's pin; ~PageRef double-unpins
      },
      "TOPK_CHECK");
}

TEST(BufferPoolDeathTest, FlushAllWithLivePinAborts) {
  BlockDevice dev(128);
  const uint64_t p = dev.Allocate();
  // Heap-allocate so the death-test child aborts in FlushAll itself,
  // not in a destructor unwinding the same violated precondition.
  auto* pool = new BufferPool(&dev, 2);
  pool->Pin(p);
  EXPECT_DEATH(pool->FlushAll(), "TOPK_CHECK");
  pool->Unpin(p);
  delete pool;
}

TEST(BufferPoolDeathTest, PinOfUnallocatedPageAborts) {
  BlockDevice dev(128);
  BufferPool pool(&dev, 2);
  EXPECT_DEATH(pool.Pin(99), "TOPK_CHECK");
  EXPECT_DEATH(pool.PinFresh(99), "TOPK_CHECK");
}

TEST(BufferPoolDeathTest, PinFreshOfResidentPageAborts) {
  BlockDevice dev(128);
  const uint64_t p = dev.Allocate();
  BufferPool pool(&dev, 2);
  pool.Pin(p);
  EXPECT_DEATH(pool.PinFresh(p), "TOPK_CHECK");
  pool.Unpin(p);
}

TEST(PagedArray, RoundTripAndScan) {
  BlockDevice dev(512);
  BufferPool pool(&dev, 8);
  Rng rng(1);
  std::vector<Point1D> data = test::RandomPoints1D(1000, &rng);
  PagedArray<Point1D> arr(&pool, data);
  EXPECT_EQ(arr.size(), 1000u);
  EXPECT_EQ(arr.per_page(), 512 / sizeof(Point1D));
  for (size_t i : {size_t{0}, size_t{500}, size_t{999}}) {
    EXPECT_EQ(arr.Get(i).id, data[i].id);
  }
  size_t count = 0;
  arr.ForRange(100, 900, [&](const Point1D& p) {
    EXPECT_EQ(p.id, data[100 + count].id);
    ++count;
    return true;
  });
  EXPECT_EQ(count, 800u);
}

TEST(PagedArray, SequentialScanIsBlockEfficient) {
  BlockDevice dev(512);
  BufferPool pool(&dev, 4);
  Rng rng(2);
  std::vector<Point1D> data = test::RandomPoints1D(1600, &rng);
  PagedArray<Point1D> arr(&pool, data);
  pool.FlushAll();
  dev.ResetCounters();
  size_t count = 0;
  arr.ForRange(0, arr.size(), [&](const Point1D&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1600u);
  const uint64_t expected_pages =
      (1600 + arr.per_page() - 1) / arr.per_page();
  EXPECT_EQ(dev.counters().reads, expected_pages);
}

struct EmFixture {
  std::unique_ptr<BlockDevice> dev;
  std::unique_ptr<BufferPool> pool;
  explicit EmFixture(size_t page_size = 512, size_t frames = 16)
      : dev(std::make_unique<BlockDevice>(page_size)),
        pool(std::make_unique<BufferPool>(dev.get(), frames)) {}
};

TEST(EmBPlusTree, RangeReportMatchesBrute) {
  EmFixture fx;
  Rng rng(3);
  for (size_t n : {size_t{1}, size_t{16}, size_t{17}, size_t{1000},
                   size_t{5000}}) {
    std::vector<Point1D> data = test::RandomPoints1D(n, &rng);
    EmBPlusTree tree(fx.pool.get(), data);
    for (int trial = 0; trial < 25; ++trial) {
      double a = rng.NextDouble(), b = rng.NextDouble();
      if (a > b) std::swap(a, b);
      std::vector<Point1D> got;
      tree.RangeReport({a, b}, [&](const Point1D& p) {
        got.push_back(p);
        return true;
      });
      auto want = test::BrutePrioritized<Range1DProblem>(data, {a, b},
                                                         kNegInf);
      ASSERT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want))
          << "n=" << n;
    }
  }
}

TEST(EmBPlusTree, QueryMaxMatchesBrute) {
  EmFixture fx;
  Rng rng(4);
  for (size_t n : {size_t{1}, size_t{40}, size_t{1000}, size_t{8000}}) {
    std::vector<Point1D> data = test::RandomPoints1D(n, &rng);
    EmBPlusTree tree(fx.pool.get(), data);
    for (int trial = 0; trial < 50; ++trial) {
      double a = rng.NextDouble(), b = rng.NextDouble();
      if (a > b) std::swap(a, b);
      auto got = tree.QueryMax({a, b});
      auto want = test::BruteMax<Range1DProblem>(data, {a, b});
      ASSERT_EQ(got.has_value(), want.has_value()) << "n=" << n;
      if (got.has_value()) {
        ASSERT_EQ(got->id, want->id) << "n=" << n;
      }
    }
  }
}

TEST(EmBPlusTree, WideMaxQueryIsLogarithmicIos) {
  EmFixture fx(512, 8);  // tiny pool: residency cannot hide I/Os
  Rng rng(5);
  std::vector<Point1D> data = test::RandomPoints1D(1 << 15, &rng);
  EmBPlusTree tree(fx.pool.get(), data);
  fx.pool->FlushAll();
  fx.dev->ResetCounters();
  auto got = tree.QueryMax({0.0, 1.0});  // the whole domain
  ASSERT_TRUE(got.has_value());
  // log_B n + a few boundary pages; a scan would be 2048 reads.
  EXPECT_LT(fx.dev->counters().reads, 30u);
}

TEST(EmRange1dPrioritized, MatchesBrute) {
  EmFixture fx;
  Rng rng(6);
  for (size_t n : {size_t{1}, size_t{100}, size_t{3000}}) {
    std::vector<Point1D> data = test::RandomPoints1D(n, &rng);
    EmRange1dPrioritized pri(fx.pool.get(), data);
    for (int trial = 0; trial < 25; ++trial) {
      double a = rng.NextDouble(), b = rng.NextDouble();
      if (a > b) std::swap(a, b);
      const double tau_pool[] = {kNegInf, 100.0, 600.0, 990.0};
      const double tau = tau_pool[trial % 4];
      std::vector<Point1D> got;
      pri.QueryPrioritized({a, b}, tau, [&](const Point1D& p) {
        got.push_back(p);
        return true;
      });
      auto want = test::BrutePrioritized<Range1DProblem>(data, {a, b}, tau);
      ASSERT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want))
          << "n=" << n << " tau=" << tau;
    }
  }
}

TEST(EmRange1dPrioritized, EarlyTermination) {
  EmFixture fx;
  Rng rng(7);
  EmRange1dPrioritized pri(fx.pool.get(), test::RandomPoints1D(2000, &rng));
  size_t seen = 0;
  pri.QueryPrioritized({0.0, 1.0}, kNegInf, [&seen](const Point1D&) {
    ++seen;
    return seen < 8;
  });
  EXPECT_EQ(seen, 8u);
}

// External-sort bulk loading: sort on the device, adopt the sorted
// pages as B+-tree leaves, and verify queries agree with the in-memory
// construction path.
TEST(EmBPlusTree, BulkLoadFromExternalSortMatches) {
  EmFixture fx(512, 32);
  Rng rng(10);
  std::vector<Point1D> data = test::RandomPoints1D(6000, &rng);
  auto by_x = [](const Point1D& a, const Point1D& b) {
    if (a.x != b.x) return a.x < b.x;
    return a.id < b.id;
  };
  em::PagedArray<Point1D> sorted = em::ExternalSortVector(
      fx.pool.get(), data, /*memory_words=*/2048, by_x);
  EmBPlusTree bulk(fx.pool.get(), std::move(sorted));
  EmBPlusTree reference(fx.pool.get(), data);
  for (int trial = 0; trial < 30; ++trial) {
    double a = rng.NextDouble(), b = rng.NextDouble();
    if (a > b) std::swap(a, b);
    auto got = bulk.QueryMax({a, b});
    auto want = reference.QueryMax({a, b});
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got.has_value()) {
      ASSERT_EQ(got->id, want->id);
    }
    std::vector<Point1D> got_range;
    bulk.RangeReport({a, b}, [&](const Point1D& p) {
      got_range.push_back(p);
      return true;
    });
    auto want_range =
        test::BrutePrioritized<Range1DProblem>(data, {a, b}, kNegInf);
    ASSERT_EQ(test::SortedIdsOf(got_range), test::SortedIdsOf(want_range));
  }
}

// Both reductions instantiated over the EM structures via factories;
// answers must stay exact and all work flows through the block device.
TEST(EmReductions, BothReductionsMatchBrute) {
  EmFixture fx(512, 64);
  Rng rng(8);
  std::vector<Point1D> data = test::RandomPoints1D(20000, &rng);

  auto pri_factory = [&fx](std::vector<Point1D> v) {
    return EmRange1dPrioritized(fx.pool.get(), std::move(v));
  };
  auto max_factory = [&fx](std::vector<Point1D> v) {
    return EmBPlusTree(fx.pool.get(), std::move(v));
  };
  // The EM substrates set B explicitly: the reductions' budgets are
  // counted in device blocks here.
  const ReductionOptions opts{.block_size = 64};
  CoreSetTopK<Range1DProblem, EmRange1dPrioritized> thm1(data, opts,
                                                         pri_factory);
  SampledTopK<Range1DProblem, EmRange1dPrioritized, EmBPlusTree,
              decltype(pri_factory), decltype(max_factory)>
      thm2(data, opts, pri_factory, max_factory);

  const uint64_t io_before = fx.dev->counters().total();
  for (int trial = 0; trial < 6; ++trial) {
    double a = rng.NextDouble(), b = rng.NextDouble();
    if (a > b) std::swap(a, b);
    for (size_t k : {size_t{1}, size_t{50}, size_t{2000}}) {
      auto want = test::BruteTopK<Range1DProblem>(data, {a, b}, k);
      ASSERT_EQ(test::IdsOf(topk::Query(thm1, {a, b}, k)), test::IdsOf(want));
      ASSERT_EQ(test::IdsOf(topk::Query(thm2, {a, b}, k)), test::IdsOf(want));
    }
  }
  EXPECT_GT(fx.dev->counters().total(), io_before);  // really EM-backed
}

// The EM substrates have no stable slots, so a parallel::Context is
// inert over them: every deep-k fetch still runs the substrate's own
// query and pays its block I/Os through the BufferPool, never a RAM
// copy. Two identical fixtures, one queried serially and one with two
// shards, must agree on every answer, every QueryStats field and the
// device I/O each query charged.
TEST(EmReductions, ShardContextChargesRealIo) {
  constexpr size_t kN = 20000;
  static_assert(kN >= parallel::kMinShardedN);
  Rng rng(9);
  const std::vector<Point1D> data = test::RandomPoints1D(kN, &rng);
  const Range1D queries[] = {{0.0, 1.0}, {0.05, 0.95}, {0.3, 0.9}};
  struct Run {
    std::vector<uint64_t> ids;
    QueryStats stats;
    uint64_t io = 0;
  };
  auto run_all = [&](parallel::Context* par) {
    EmFixture fx(512, 64);
    auto pri_factory = [&fx](std::vector<Point1D> v) {
      return EmRange1dPrioritized(fx.pool.get(), std::move(v));
    };
    auto max_factory = [&fx](std::vector<Point1D> v) {
      return EmBPlusTree(fx.pool.get(), std::move(v));
    };
    const ReductionOptions opts{.block_size = 64};
    CoreSetTopK<Range1DProblem, EmRange1dPrioritized> thm1(data, opts,
                                                           pri_factory);
    SampledTopK<Range1DProblem, EmRange1dPrioritized, EmBPlusTree,
                decltype(pri_factory), decltype(max_factory)>
        thm2(data, opts, pri_factory, max_factory);
    Scratch scratch;
    std::vector<Point1D> out;
    std::vector<Run> runs;
    auto query = [&](const auto& s, const Range1D& q, size_t k) {
      Run r;
      const uint64_t before = fx.dev->counters().total();
      s.QueryInto(q, k, &scratch, &out, &r.stats, nullptr, par);
      r.io = fx.dev->counters().total() - before;
      r.ids = test::IdsOf(out);
      EXPECT_EQ(r.ids,
                test::IdsOf(test::BruteTopK<Range1DProblem>(data, q, k)));
      runs.push_back(std::move(r));
    };
    for (const Range1D& q : queries) {
      for (size_t k : {kN / 2, kN * 3 / 4, kN}) {
        query(thm1, q, k);
        query(thm2, q, k);
      }
    }
    return runs;
  };
  parallel::Context two(2);
  const std::vector<Run> serial = run_all(nullptr);
  const std::vector<Run> sharded = run_all(&two);
  ASSERT_EQ(serial.size(), sharded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "query " << i);
    EXPECT_EQ(sharded[i].ids, serial[i].ids);
    QueryStats::ForEachField([&](const char* name, auto field) {
      EXPECT_EQ(sharded[i].stats.*field, serial[i].stats.*field) << name;
    });
    EXPECT_GT(serial[i].io, 0u);
    EXPECT_EQ(sharded[i].io, serial[i].io);
  }
}

}  // namespace
}  // namespace topk
