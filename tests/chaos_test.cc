// Chaos harness: a full EM top-k stack (CoreSetTopK over the Section
// 5.5 prioritized structure, paged through BufferPool) queried through
// a fault chain  pool -> RetryingBlockDevice -> FaultyBlockDevice ->
// BlockDevice, swept over deterministic fault schedules.
//
// The contracts under test (ISSUE acceptance criteria):
//   * results under absorbed faults are BITWISE-IDENTICAL to the
//     fault-free run, and so are the device's read/write counts (the
//     devices only count successful transfers);
//   * the accounting identity  faults injected == retries + giveups
//     holds exactly, with the injector's trigger counters agreeing;
//   * exhausted retries surface as a flagged FallibleResult — never an
//     abort, never a silently wrong answer — and the structure recovers
//     completely once the fault clears.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/core_set_topk.h"
#include "core/reduction_options.h"
#include "em/block_device.h"
#include "em/buffer_pool.h"
#include "em/em_range1d.h"
#include "em/fallible.h"
#include "fault/failpoint.h"
#include "fault/faulty_block_device.h"
#include "fault/retrying_block_device.h"
#include "range1d/point1d.h"
#include "test_util.h"

namespace topk {
namespace {

using em::BlockDevice;
using em::BufferPool;
using em::FallibleResult;
using em::FallibleTopK;
using em::EmRange1dPrioritized;
using fault::FailPointConfig;
using fault::FaultyBlockDevice;
using fault::Injector;
using fault::RetryingBlockDevice;
using range1d::Point1D;
using range1d::Range1D;
using range1d::Range1DProblem;

using EmTopK = CoreSetTopK<Range1DProblem, EmRange1dPrioritized>;

// One EM top-k stack behind a fault chain. The structure is BUILT with
// the injector disarmed (construction has no degradation story — a
// zeroed page during bulk load would silently corrupt the structure);
// faults are armed afterwards, for the query phase only.
struct ChaosFixture {
  BlockDevice base{512};
  Injector inj;
  FaultyBlockDevice faulty{&base, &inj};
  RetryingBlockDevice retry;
  BufferPool pool;
  std::unique_ptr<EmTopK> topk;
  std::unique_ptr<FallibleTopK<EmTopK>> fallible;

  ChaosFixture(const std::vector<Point1D>& data, uint64_t fault_seed,
               size_t max_attempts)
      : inj(fault_seed), retry(&faulty, {.max_attempts = max_attempts}),
        pool(&retry, 16) {
    auto pri_factory = [this](std::vector<Point1D> v) {
      return EmRange1dPrioritized(&pool, std::move(v));
    };
    topk = std::make_unique<EmTopK>(
        data, ReductionOptions{.block_size = 64}, pri_factory);
    fallible = std::make_unique<FallibleTopK<EmTopK>>(topk.get(), &pool);
    TOPK_CHECK(!pool.ConsumeIoFailure());  // clean build
    base.ResetCounters();
  }
};

std::vector<std::pair<Range1D, size_t>> MakeQueries(size_t count,
                                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Range1D, size_t>> qs;
  for (size_t i = 0; i < count; ++i) {
    double a = rng.NextDouble(), b = rng.NextDouble();
    if (a > b) std::swap(a, b);
    qs.push_back({{a, b}, (i % 5 == 0) ? 400 : 1 + i % 16});
  }
  return qs;
}

// Absorbed-fault sweep: at rates the retry budget can always cover
// (every_nth >= max_attempts would be the edge; here every fault is
// followed by successful attempts), the run must be indistinguishable
// from fault-free in both answers and I/O counts.
TEST(Chaos, AbsorbedFaultScheduleIsBitwiseInvisible) {
  Rng rng(21);
  const std::vector<Point1D> data = test::RandomPoints1D(6000, &rng);
  const auto queries = MakeQueries(24, 22);

  // Reference: fault-free run.
  ChaosFixture ref(data, /*fault_seed=*/0, /*max_attempts=*/3);
  std::vector<std::vector<uint64_t>> want_ids;
  for (const auto& [q, k] : queries) {
    FallibleResult<Point1D> r = ref.fallible->Query(q, k);
    ASSERT_FALSE(r.io_failed);
    want_ids.push_back(test::IdsOf(r.elements));
  }
  const uint64_t want_reads = ref.base.counters().reads;
  const uint64_t want_writes = ref.base.counters().writes;
  ASSERT_GT(want_reads, 0u);  // the workload really is EM-backed

  // Scripted schedules: every 7th and every 3rd read attempt faults;
  // with 3 attempts per transfer, every fault is absorbed.
  for (const uint64_t every_nth : {uint64_t{7}, uint64_t{3}}) {
    ChaosFixture fx(data, /*fault_seed=*/99, /*max_attempts=*/3);
    fx.inj.Arm(fault::kReadFaultSite, {.every_nth = every_nth});
    for (size_t i = 0; i < queries.size(); ++i) {
      FallibleResult<Point1D> r =
          fx.fallible->Query(queries[i].first, queries[i].second);
      ASSERT_FALSE(r.io_failed) << "schedule 1/" << every_nth;
      ASSERT_EQ(test::IdsOf(r.elements), want_ids[i])
          << "query " << i << " under schedule 1/" << every_nth;
    }
    // Bitwise-identical I/O: failed attempts are never counted.
    EXPECT_EQ(fx.base.counters().reads, want_reads);
    EXPECT_EQ(fx.base.counters().writes, want_writes);
    EXPECT_EQ(fx.base.counters().giveups, 0u);
    // Exact accounting identity against the injected schedule.
    EXPECT_GT(fx.faulty.read_faults(), 0u);
    EXPECT_EQ(fx.faulty.read_faults(),
              fx.inj.triggers(fault::kReadFaultSite));
    EXPECT_EQ(fx.base.counters().retries, fx.faulty.read_faults());
  }
}

// Random (Bernoulli) fault rates at 1% and 10%, fixed seeds. Flagged
// queries are allowed (a giveup needs max_attempts consecutive faults);
// every unflagged query must be exact, every flagged query must recover
// to the exact answer within a few re-asks (poisoned frames are never
// cached, so a re-ask re-reads the device with a fresh fault roll).
TEST(Chaos, RandomRateSweepNeverAbortsAndAlwaysRecovers) {
  Rng rng(31);
  const std::vector<Point1D> data = test::RandomPoints1D(6000, &rng);
  const auto queries = MakeQueries(16, 32);

  ChaosFixture ref(data, 0, 3);
  std::vector<std::vector<uint64_t>> want_ids;
  for (const auto& [q, k] : queries) {
    want_ids.push_back(test::IdsOf(ref.fallible->Query(q, k).elements));
  }

  for (const double rate : {0.01, 0.10}) {
    // max_attempts = 2 keeps giveups reachable at the 10% rate.
    ChaosFixture fx(data, /*fault_seed=*/77, /*max_attempts=*/2);
    fx.inj.Arm(fault::kReadFaultSite, {.probability = rate});
    uint64_t flagged = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      FallibleResult<Point1D> r =
          fx.fallible->Query(queries[i].first, queries[i].second);
      int re_asks = 0;
      while (r.io_failed) {
        ++flagged;
        ASSERT_LT(++re_asks, 64) << "query " << i << " never recovered";
        r = fx.fallible->Query(queries[i].first, queries[i].second);
      }
      ASSERT_EQ(test::IdsOf(r.elements), want_ids[i])
          << "query " << i << " at rate " << rate;
    }
    // The accounting identity holds at any rate, giveups included.
    EXPECT_EQ(fx.faulty.read_faults(),
              fx.base.counters().retries + fx.base.counters().giveups);
    EXPECT_EQ(fx.faulty.read_faults(),
              fx.inj.triggers(fault::kReadFaultSite));
    EXPECT_EQ(fx.pool.io_failures(), fx.base.counters().giveups);
    EXPECT_EQ(flagged == 0, fx.base.counters().giveups == 0);
  }
}

// Total outage: every read gives up. Queries come back flagged (never
// abort, never silently wrong), and once the outage clears the same
// stack serves exact answers again — no poisoned state lingers.
TEST(Chaos, TotalReadOutageFlagsEverythingThenRecovers) {
  Rng rng(41);
  const std::vector<Point1D> data = test::RandomPoints1D(3000, &rng);
  const auto queries = MakeQueries(8, 42);

  ChaosFixture fx(data, 5, 3);
  fx.inj.Arm(fault::kReadFaultSite, {.every_nth = 1});
  uint64_t flagged = 0;
  for (const auto& [q, k] : queries) {
    FallibleResult<Point1D> r = fx.fallible->Query(q, k);
    if (r.io_failed) ++flagged;
  }
  // Queries that needed any device read came back flagged; tiny ranges
  // may be answered from still-cached pages and stay exact.
  EXPECT_GT(flagged, 0u);
  EXPECT_GT(fx.base.counters().giveups, 0u);
  EXPECT_EQ(fx.base.counters().reads, 0u);  // nothing got through

  fx.inj.DisarmAll();
  for (const auto& [q, k] : queries) {
    FallibleResult<Point1D> r = fx.fallible->Query(q, k);
    ASSERT_FALSE(r.io_failed);
    ASSERT_EQ(test::IdsOf(r.elements),
              test::IdsOf(test::BruteTopK<Range1DProblem>(data, q, k)));
  }
}

// One full life of the stack — build, query, FlushAll — with BOTH
// fault sites armed in the same run (ISSUE satellite: mixed read+write
// schedules). Build and write-back absorb write faults through the
// retry budget exactly like query reads absorb read faults, the
// answers and the counted I/O stay bitwise-identical to the fault-free
// twin, and the accounting identity covers the two sites jointly:
//   read_faults + write_faults == retries + giveups (== retries here).
TEST(Chaos, MixedReadWriteFaultScheduleHoldsJointIdentity) {
  Rng rng(51);
  const std::vector<Point1D> data = test::RandomPoints1D(6000, &rng);
  const auto queries = MakeQueries(16, 52);

  // The armed run builds THROUGH the fault chain, so the twin must
  // count its build I/O too (no ResetCounters, unlike ChaosFixture).
  struct Stack {
    BlockDevice base{512};
    Injector inj;
    FaultyBlockDevice faulty{&base, &inj};
    RetryingBlockDevice retry;
    BufferPool pool;
    Stack(uint64_t seed, size_t max_attempts)
        : inj(seed), retry(&faulty, {.max_attempts = max_attempts}),
          pool(&retry, 16) {}
  };
  auto run = [&](Stack* s) {
    auto pri_factory = [s](std::vector<Point1D> v) {
      return EmRange1dPrioritized(&s->pool, std::move(v));
    };
    EmTopK topk(data, ReductionOptions{.block_size = 64}, pri_factory);
    FallibleTopK<EmTopK> fallible(&topk, &s->pool);
    std::vector<std::vector<uint64_t>> ids;
    for (const auto& [q, k] : queries) {
      FallibleResult<Point1D> r = fallible.Query(q, k);
      EXPECT_FALSE(r.io_failed);
      ids.push_back(test::IdsOf(r.elements));
    }
    s->pool.FlushAll();
    return ids;
  };

  Stack ref(/*seed=*/0, /*max_attempts=*/3);
  const auto want_ids = run(&ref);
  ASSERT_GT(ref.base.counters().writes, 0u);  // build + flush wrote

  Stack fx(/*seed=*/99, /*max_attempts=*/3);
  // Absorbable rates on both sites: every_nth >= 2 never faults the
  // same transfer twice in a row, so 3 attempts always get through.
  fx.inj.Arm(fault::kReadFaultSite, {.every_nth = 7});
  fx.inj.Arm(fault::kWriteFaultSite, {.every_nth = 5});
  const auto got_ids = run(&fx);

  EXPECT_EQ(got_ids, want_ids);
  EXPECT_EQ(fx.base.counters().reads, ref.base.counters().reads);
  EXPECT_EQ(fx.base.counters().writes, ref.base.counters().writes);
  EXPECT_EQ(fx.base.counters().giveups, 0u);
  EXPECT_GT(fx.faulty.read_faults(), 0u);
  EXPECT_GT(fx.faulty.write_faults(), 0u);
  EXPECT_EQ(fx.faulty.read_faults() + fx.faulty.write_faults(),
            fx.base.counters().retries);
  EXPECT_EQ(fx.faulty.read_faults(), fx.inj.triggers(fault::kReadFaultSite));
  EXPECT_EQ(fx.faulty.write_faults(),
            fx.inj.triggers(fault::kWriteFaultSite));
}

// A write give-up reaching FlushAll stays FATAL by design: eviction
// write-back has no redo log to degrade onto, so the infallible Write
// wrapper aborts rather than silently dropping a dirty page (contrast
// the read path, which degrades to a flagged result).
TEST(ChaosDeathTest, WriteGiveupReachingFlushAllAborts) {
  Rng rng(61);
  const std::vector<Point1D> data = test::RandomPoints1D(400, &rng);
  ChaosFixture fx(data, /*fault_seed=*/9, /*max_attempts=*/2);
  // The build left dirty frames in the pool; a total write outage
  // exhausts the retry budget on the first write-back.
  fx.inj.Arm(fault::kWriteFaultSite, {.every_nth = 1});
  EXPECT_DEATH(fx.pool.FlushAll(), "TOPK_CHECK");
  // The death ran in the forked child; the parent's pool still holds
  // its dirty frames, so clear the outage before the fixture's own
  // destructor write-back.
  fx.inj.DisarmAll();
}

}  // namespace
}  // namespace topk
