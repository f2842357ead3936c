// Deterministic crash-point recovery (the tentpole's acceptance
// criterion): a seeded insert/erase/checkpoint schedule is run once to
// count its durable storage operations T, then re-run with a crash
// injected at EVERY point 0..T. Each crash is expanded into the
// page-cache outcomes the durability model allows (nothing flushed /
// everything flushed / half flushed with the next write torn,
// independently per file). After every single combination the store is
// reopened, Recover()ed, and must land on apply(schedule[0..s]) for
// some s between the acknowledged and the issued mutation count — with
// brute-force-exact query results over the recovered elements, and a
// second Recover() that is a pinned no-op (same state, same device
// I/O, zero bytes re-truncated).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/reduction_options.h"
#include "core/sampled_topk.h"
#include "em/block_device.h"
#include "em/buffer_pool.h"
#include "em/durable_store.h"
#include "em/em_range1d.h"
#include "em/file_block_device.h"
#include "em/storage.h"
#include "fault/crash_point.h"
#include "fault/failpoint.h"
#include "fault/faulty_storage.h"
#include "range1d/dyn_pst.h"
#include "range1d/dyn_range_max.h"
#include "range1d/point1d.h"
#include "serve/cold_start.h"
#include "serve/epoch.h"
#include "test_util.h"

namespace topk {
namespace {

using em::BlockDevice;
using em::BufferPool;
using em::DurableStore;
using em::EmBPlusTree;
using em::FileBlockDevice;
using em::IoCounters;
using em::MemStorage;
using fault::CrashClock;
using fault::CrashPointStorage;
using fault::FaultyStorage;
using fault::Injector;
using range1d::Point1D;
using range1d::Range1D;
using range1d::Range1DProblem;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr size_t kPage = 256;

using Store = DurableStore<Point1D>;

// --- the seeded schedule ---------------------------------------------

struct Op {
  enum Kind { kInsert, kErase, kCheckpoint };
  Kind kind;
  Point1D e;    // kInsert
  uint64_t id;  // kErase
};

std::vector<Op> MakeSchedule(uint64_t seed, size_t n_ops) {
  Rng rng(seed);
  std::vector<Op> ops;
  std::vector<uint64_t> live;
  uint64_t next_id = 1;
  for (size_t i = 0; i < n_ops; ++i) {
    if (i > 0 && i % 9 == 0) {
      ops.push_back(Op{Op::kCheckpoint, Point1D{}, 0});
    } else if (live.size() >= 4 && rng.Below(3) == 0) {
      const size_t j = static_cast<size_t>(rng.Below(live.size()));
      ops.push_back(Op{Op::kErase, Point1D{}, live[j]});
      live.erase(live.begin() + static_cast<ptrdiff_t>(j));
    } else {
      Point1D p;
      p.x = rng.NextDouble();
      p.weight = rng.NextDouble() * 1000.0;
      p.id = next_id++;
      ops.push_back(Op{Op::kInsert, p, 0});
      live.push_back(p.id);
    }
  }
  return ops;
}

// states[m] = element set (ascending id, Elements()'s order) after the
// first m MUTATIONS of the schedule; checkpoints don't change state.
std::vector<std::vector<Point1D>> ExpectedStates(
    const std::vector<Op>& ops) {
  std::vector<std::vector<Point1D>> states;
  std::vector<Point1D> cur;  // kept sorted by id
  states.push_back(cur);
  for (const Op& op : ops) {
    if (op.kind == Op::kCheckpoint) continue;
    if (op.kind == Op::kInsert) {
      cur.push_back(op.e);
      for (size_t i = cur.size(); i-- > 1 && cur[i].id < cur[i - 1].id;) {
        std::swap(cur[i], cur[i - 1]);
      }
    } else {
      for (size_t i = 0; i < cur.size(); ++i) {
        if (cur[i].id == op.id) {
          cur.erase(cur.begin() + static_cast<ptrdiff_t>(i));
          break;
        }
      }
    }
    states.push_back(cur);
  }
  return states;
}

// --- one "process life" over the three durable files -----------------

struct RunOutcome {
  uint64_t acked = 0;   // mutations acknowledged (returned true)
  uint64_t issued = 0;  // mutations attempted (acked + at most 1 in flight)
  bool died = false;
  uint64_t clock_ops = 0;
};

RunOutcome RunSchedule(const std::vector<Op>& ops, uint64_t crash_at,
                       MemStorage* dev_mem, MemStorage* wal_mem,
                       MemStorage* man_mem) {
  CrashClock clock(crash_at);
  CrashPointStorage dev(dev_mem, &clock);
  CrashPointStorage wal(wal_mem, &clock);
  CrashPointStorage man(man_mem, &clock);
  FileBlockDevice device(&dev, kPage);
  Store store(&device, &dev, &wal, &man);
  RunOutcome out;
  for (const Op& op : ops) {
    bool ok = true;
    switch (op.kind) {
      case Op::kInsert:
        ++out.issued;
        ok = store.Insert(op.e);
        break;
      case Op::kErase:
        ++out.issued;
        ok = store.Erase(op.id);
        break;
      case Op::kCheckpoint:
        ok = store.Checkpoint();
        break;
    }
    if (ok && op.kind != Op::kCheckpoint) ++out.acked;
    if (!ok) {
      out.died = true;  // the process stops at its first failed ack
      break;
    }
  }
  out.clock_ops = clock.ops();
  return out;
}

struct Recovered {
  std::vector<Point1D> elements;
  uint64_t applied_seq = 0;
  Store::RecoverStats stats;
  IoCounters io;
};

Recovered RecoverFresh(MemStorage* dev_mem, MemStorage* wal_mem,
                       MemStorage* man_mem) {
  FileBlockDevice device(dev_mem, kPage);
  Store store(&device, dev_mem, wal_mem, man_mem);
  Recovered r;
  r.stats = store.Recover();
  r.elements = store.Elements();
  r.applied_seq = store.applied_seq();
  r.io = device.counters();
  return r;
}

// One page-cache outcome per storage: 0 = nothing flushed since the
// last sync, 1 = everything flushed, 2 = half flushed + the next write
// torn after 3 bytes.
void ApplyCrashVariant(MemStorage* s, int v) {
  const size_t pending = s->pending_ops();
  switch (v) {
    case 0: s->SimulateCrash(0); break;
    case 1: s->SimulateCrash(pending); break;
    default: s->SimulateCrash(pending / 2, /*torn_bytes=*/3); break;
  }
}

// The recovered elements must answer range queries brute-force-exactly
// — through a real EM structure built over them, not just by set
// comparison.
void ExpectBruteExactQueries(const std::vector<Point1D>& recovered) {
  BlockDevice dev(kPage);
  BufferPool pool(&dev, 8);
  EmBPlusTree tree(&pool, recovered);
  for (const auto& [lo, hi] : {std::pair<double, double>{0.2, 0.8},
                               std::pair<double, double>{0.0, 1.0}}) {
    std::vector<Point1D> got;
    tree.RangeReport({lo, hi}, [&](const Point1D& p) {
      got.push_back(p);
      return true;
    });
    ASSERT_EQ(test::SortedIdsOf(got),
              test::SortedIdsOf(test::BrutePrioritized<Range1DProblem>(
                  recovered, {lo, hi}, kNegInf)));
  }
}

// --- the exhaustive sweep --------------------------------------------

TEST(CrashRecovery, ExhaustiveCrashPointSweepIsBruteForceExact) {
  const std::vector<Op> ops = MakeSchedule(101, 34);
  const auto states = ExpectedStates(ops);

  // Pass 1, unarmed: the schedule completes and counts its durable ops.
  MemStorage dev0, wal0, man0;
  const RunOutcome clean =
      RunSchedule(ops, CrashClock::kNever, &dev0, &wal0, &man0);
  ASSERT_FALSE(clean.died);
  ASSERT_EQ(clean.acked, clean.issued);
  ASSERT_EQ(clean.acked + 1, states.size());
  const uint64_t total_ops = clean.clock_ops;
  ASSERT_GT(total_ops, 2 * clean.acked);  // every mutation: write + sync

  // Clean-shutdown reopen sanity before the crash sweep.
  const Recovered base = RecoverFresh(&dev0, &wal0, &man0);
  ASSERT_EQ(base.applied_seq, clean.acked);
  ASSERT_EQ(test::IdsOf(base.elements), test::IdsOf(states.back()));

  // Pass 2: crash at every durable operation boundary.
  for (uint64_t crash_at = 0; crash_at <= total_ops; ++crash_at) {
    MemStorage dev_mem, wal_mem, man_mem;
    const RunOutcome run =
        RunSchedule(ops, crash_at, &dev_mem, &wal_mem, &man_mem);
    ASSERT_EQ(run.died, crash_at < total_ops) << "crash_at=" << crash_at;
    ASSERT_LE(run.issued, run.acked + 1);

    for (int dv = 0; dv < 3; ++dv) {
      for (int wv = 0; wv < 3; ++wv) {
        for (int mv = 0; mv < 3; ++mv) {
          MemStorage dev_c = dev_mem, wal_c = wal_mem, man_c = man_mem;
          ApplyCrashVariant(&dev_c, dv);
          ApplyCrashVariant(&wal_c, wv);
          ApplyCrashVariant(&man_c, mv);

          const Recovered r = RecoverFresh(&dev_c, &wal_c, &man_c);
          const uint64_t s = r.applied_seq;
          ASSERT_GE(s, run.acked)
              << "crash_at=" << crash_at << " variant=" << dv << wv << mv
              << ": an acknowledged operation was lost";
          ASSERT_LE(s, run.issued)
              << "crash_at=" << crash_at << " variant=" << dv << wv << mv
              << ": an operation that was never issued appeared";
          ASSERT_EQ(test::IdsOf(r.elements), test::IdsOf(states[s]))
              << "crash_at=" << crash_at << " variant=" << dv << wv << mv;

          // Recovery is idempotent, pinned by exact I/O and state: a
          // second recovery over the same files reads the same pages,
          // truncates nothing, and reproduces the same state.
          const Recovered r2 = RecoverFresh(&dev_c, &wal_c, &man_c);
          ASSERT_EQ(r2.applied_seq, s);
          ASSERT_EQ(test::IdsOf(r2.elements), test::IdsOf(r.elements));
          ASSERT_EQ(r2.stats.wal_truncated_bytes, 0u)
              << "crash_at=" << crash_at << " variant=" << dv << wv << mv;
          ASSERT_EQ(r2.stats.wal_records_replayed,
                    r.stats.wal_records_replayed);
          ASSERT_EQ(r2.io.reads, r.io.reads);
          ASSERT_EQ(r2.io.writes, r.io.writes);

          // Brute-force-exact queries over the recovered set, through a
          // real structure (bounded to the torn variant to keep the
          // sweep fast; the set equality above covers the rest).
          if (dv == 2 && wv == 2 && mv == 2) {
            ExpectBruteExactQueries(r.elements);
          }
        }
      }
    }
  }
}

// --- injected storage faults without a crash -------------------------

TEST(CrashRecovery, TornWalWriteIsNotAckedAndStoreRetriesCleanly) {
  MemStorage dev_mem, wal_mem, man_mem;
  Injector inj(5);
  FaultyStorage faulty_wal(&wal_mem, &inj);
  FileBlockDevice device(&dev_mem, kPage);
  Store store(&device, &dev_mem, &faulty_wal, &man_mem);

  const std::vector<Point1D> pts = [] {
    Rng rng(6);
    return test::RandomPoints1D(4, &rng);
  }();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(store.Insert(pts[i]));

  inj.Arm(fault::kTornWriteSite, {.every_nth = 1});
  EXPECT_FALSE(store.Insert(pts[3]));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(faulty_wal.torn_writes(), 1u);
  inj.DisarmAll();

  ASSERT_TRUE(store.Insert(pts[3]));  // the retry reuses the seq cleanly
  EXPECT_EQ(store.applied_seq(), 4u);

  const Recovered r = RecoverFresh(&dev_mem, &wal_mem, &man_mem);
  EXPECT_EQ(r.applied_seq, 4u);
  EXPECT_EQ(test::IdsOf(r.elements), test::IdsOf(pts));
  EXPECT_EQ(r.stats.wal_truncated_bytes, 0u);  // rollback left no tail
}

TEST(CrashRecovery, ShortFsyncIsNotACommit) {
  MemStorage dev_mem, wal_mem, man_mem;
  Injector inj(7);
  FaultyStorage faulty_wal(&wal_mem, &inj);
  FileBlockDevice device(&dev_mem, kPage);
  Store store(&device, &dev_mem, &faulty_wal, &man_mem);

  Rng rng(8);
  const std::vector<Point1D> pts = test::RandomPoints1D(3, &rng);
  ASSERT_TRUE(store.Insert(pts[0]));
  ASSERT_TRUE(store.Insert(pts[1]));

  inj.Arm(fault::kShortSyncSite, {.every_nth = 1});
  EXPECT_FALSE(store.Insert(pts[2]));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(faulty_wal.short_syncs(), 1u);
  inj.DisarmAll();

  // Crash dropping everything un-synced: exactly the two acked inserts
  // survive — the short fsync really did not commit.
  wal_mem.SimulateCrash(0);
  const Recovered r = RecoverFresh(&dev_mem, &wal_mem, &man_mem);
  EXPECT_EQ(r.applied_seq, 2u);
  ASSERT_EQ(r.elements.size(), 2u);
}

// A checkpoint whose manifest committed but whose WAL reset never
// became durable must stay recoverable: the replay's idempotence gate
// skips the pre-checkpoint records either way.
TEST(CrashRecovery, FailedWalResetAfterManifestCommitIsRecoverable) {
  MemStorage dev_mem, wal_mem, man_mem;
  Injector inj(9);
  FaultyStorage faulty_wal(&wal_mem, &inj);
  FileBlockDevice device(&dev_mem, kPage);
  Store store(&device, &dev_mem, &faulty_wal, &man_mem);

  Rng rng(10);
  const std::vector<Point1D> pts = test::RandomPoints1D(5, &rng);
  for (const Point1D& p : pts) ASSERT_TRUE(store.Insert(p));

  // Only the WAL storage is faulted, so the first sync to fire inside
  // Checkpoint's WAL path is the Reset's — manifest and device syncs
  // run clean.
  inj.Arm(fault::kShortSyncSite, {.every_nth = 1});
  EXPECT_FALSE(store.Checkpoint());
  inj.DisarmAll();

  // Whether or not the reset's truncate reached the platter, recovery
  // lands on the same state.
  for (const size_t flushed : {size_t{0}, wal_mem.pending_ops()}) {
    MemStorage wal_c = wal_mem;
    wal_c.SimulateCrash(flushed);
    MemStorage dev_c = dev_mem, man_c = man_mem;
    ApplyCrashVariant(&dev_c, 1);
    ApplyCrashVariant(&man_c, 1);
    const Recovered r = RecoverFresh(&dev_c, &wal_c, &man_c);
    EXPECT_TRUE(r.stats.had_checkpoint);
    EXPECT_EQ(r.applied_seq, 5u);
    EXPECT_EQ(test::IdsOf(r.elements),
              test::SortedIdsOf(pts));
    EXPECT_EQ(r.stats.wal_records_replayed, 0u);  // all <= watermark
  }
}

// --- the unique-id doors (common/weighted.h) ------------------------

// DurableStore is where outside ids enter in every build: an Insert of
// a live id and an Erase of a dead one abort before anything is logged.
TEST(CrashRecoveryDeath, InsertOfLiveIdAborts) {
  MemStorage dev_mem, wal_mem, man_mem;
  FileBlockDevice device(&dev_mem, kPage);
  Store store(&device, &dev_mem, &wal_mem, &man_mem);
  Rng rng(13);
  const std::vector<Point1D> pts = test::RandomPoints1D(2, &rng);
  ASSERT_TRUE(store.Insert(pts[0]));
  Point1D dup = pts[0];
  dup.weight += 1.0;
  EXPECT_DEATH((void)store.Insert(dup), "TOPK_CHECK");
}

TEST(CrashRecoveryDeath, EraseOfDeadIdAborts) {
  MemStorage dev_mem, wal_mem, man_mem;
  FileBlockDevice device(&dev_mem, kPage);
  Store store(&device, &dev_mem, &wal_mem, &man_mem);
  Rng rng(14);
  const std::vector<Point1D> pts = test::RandomPoints1D(2, &rng);
  ASSERT_TRUE(store.Insert(pts[0]));
  ASSERT_TRUE(store.Erase(pts[0].id));
  EXPECT_DEATH((void)store.Erase(pts[0].id), "TOPK_CHECK");  // erased
  EXPECT_DEATH((void)store.Erase(pts[1].id), "TOPK_CHECK");  // never in
}

// --- recovery into the serving layer ---------------------------------

// Cold start end-to-end: recover a crashed store, publish the recovered
// elements as epoch 1 of a dynamic serving structure, and answer top-k
// queries brute-force-exactly through a pinned epoch.
TEST(CrashRecovery, ColdStartServesRecoveredStateExactly) {
  using DynTopK =
      SampledTopK<Range1DProblem, range1d::DynamicPst,
                  range1d::DynamicRangeMax>;

  MemStorage dev_mem, wal_mem, man_mem;
  Rng rng(11);
  const std::vector<Point1D> pts = test::RandomPoints1D(60, &rng);
  {
    FileBlockDevice device(&dev_mem, kPage);
    Store store(&device, &dev_mem, &wal_mem, &man_mem);
    for (size_t i = 0; i < 40; ++i) ASSERT_TRUE(store.Insert(pts[i]));
    ASSERT_TRUE(store.Checkpoint());
    for (size_t i = 40; i < 60; ++i) ASSERT_TRUE(store.Insert(pts[i]));
    ASSERT_TRUE(store.Erase(pts[3].id));
  }
  // Crash: checkpoint + committed WAL tail survive.
  dev_mem.SimulateCrash(0);
  wal_mem.SimulateCrash(0);
  man_mem.SimulateCrash(0);

  FileBlockDevice device(&dev_mem, kPage);
  Store store(&device, &dev_mem, &wal_mem, &man_mem);
  const Store::RecoverStats stats = store.Recover();
  EXPECT_TRUE(stats.had_checkpoint);
  EXPECT_EQ(stats.wal_records_replayed, 21u);  // 20 inserts + 1 erase
  ASSERT_EQ(store.size(), 59u);

  const std::vector<Point1D> recovered = store.Elements();
  auto epochs = serve::ColdStart<Point1D>(
      recovered, [](std::vector<Point1D> v) {
        return DynTopK(std::move(v), ReductionOptions{});
      });
  EXPECT_EQ(epochs->current_seq(), 1u);

  const size_t slot = epochs->RegisterReader();
  auto pin = epochs->Acquire(slot);
  Rng qrng(12);
  for (int trial = 0; trial < 20; ++trial) {
    double a = qrng.NextDouble(), b = qrng.NextDouble();
    if (a > b) std::swap(a, b);
    const size_t k = 1 + static_cast<size_t>(trial) % 7;
    const Range1D q{a, b};
    ASSERT_EQ(test::IdsOf(topk::Query(*pin.get(), q, k)),
              test::IdsOf(test::BruteTopK<Range1DProblem>(recovered, q, k)))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace topk
