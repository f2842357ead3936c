// Theorem 2 reduction: exactness across k regimes, round accounting,
// and behaviour on tiny inputs (no sample levels).

#include "core/sampled_topk.h"

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"
#include "core/reduction_options.h"
#include "range1d/dyn_pst.h"
#include "range1d/dyn_range_max.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::DynamicPst;
using range1d::DynamicRangeMax;
using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;
using range1d::RangeMax;

// Under -DTOPK_AUDIT=ON both substrates are audit wrappers (contract
// verification on every prioritized/max query in the sweep).
using TopK = SampledTopK<
    Range1DProblem,
    test::MaybeAudited<PrioritySearchTree, Range1DProblem>,
    test::MaybeAuditedMax<RangeMax, Range1DProblem>>;

// Dynamic instantiation for the update sweeps; the audit wrappers keep
// a brute-force mirror in lockstep through Insert/Erase and expose
// ForEach, so the converse membership audit runs under TOPK_AUDIT.
using DynTopK = SampledTopK<
    Range1DProblem,
    test::MaybeAudited<DynamicPst, Range1DProblem>,
    test::MaybeAuditedMax<DynamicRangeMax, Range1DProblem>>;

TEST(SampledTopK, EmptyInput) {
  TopK topk({});
  EXPECT_TRUE(topk::Query(topk, {0, 1}, 5).empty());
  EXPECT_EQ(topk.num_sample_levels(), 0u);
}

TEST(SampledTopK, TinyInputHasNoLevelsButAnswers) {
  Rng rng(1);
  std::vector<Point1D> data = test::RandomPoints1D(50, &rng);
  TopK topk(data);
  EXPECT_EQ(topk.num_sample_levels(), 0u);  // n/4 < B * Q_max
  auto got = topk::Query(topk, {0.0, 1.0}, 5);
  auto want = test::BruteTopK<Range1DProblem>(data, {0.0, 1.0}, 5);
  EXPECT_EQ(test::IdsOf(got), test::IdsOf(want));
}

TEST(SampledTopK, LevelLadderGrowsGeometrically) {
  Rng rng(2);
  TopK topk(test::RandomPoints1D(100000, &rng));
  ASSERT_GT(topk.num_sample_levels(), 1u);
  // Expected |R_i| = n / K_i decays geometrically; check loosely on the
  // endpoints.
  EXPECT_GT(topk.sample_level_size(0),
            topk.sample_level_size(topk.num_sample_levels() - 1));
}

TEST(SampledTopK, RoundsAreCounted) {
  Rng rng(3);
  TopK topk(test::RandomPoints1D(50000, &rng));
  QueryStats stats;
  topk::Query(topk, {0.0, 1.0}, 100, &stats);
  EXPECT_GE(stats.rounds + stats.full_scans, 1u);
}

struct Param {
  size_t n;
  uint64_t seed;
};

class SampledSweep : public ::testing::TestWithParam<Param> {};

TEST_P(SampledSweep, MatchesBruteForceAcrossKRegimes) {
  const Param p = GetParam();
  Rng rng(p.seed);
  std::vector<Point1D> data = test::RandomPoints1D(p.n, &rng);
  ReductionOptions opts;
  opts.seed = p.seed * 31;
  TopK topk(data, opts);
  topk.AuditInvariants();

  std::vector<size_t> ks = {1, 2, 7, 64, 100, 1000, p.n / 2, p.n};
  for (int trial = 0; trial < 12; ++trial) {
    double a = rng.NextDouble();
    double b = rng.NextDouble();
    if (a > b) std::swap(a, b);
    if (trial % 4 == 0) {
      a = 0.0;
      b = 1.0;
    }
    const Range1D q{a, b};
    for (size_t k : ks) {
      if (k == 0) continue;
      auto got = topk::Query(topk, q, k);
      auto want = test::BruteTopK<Range1DProblem>(data, q, k);
      ASSERT_EQ(test::IdsOf(got), test::IdsOf(want))
          << "n=" << p.n << " k=" << k << " q=[" << a << "," << b << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SampledSweep,
                         ::testing::Values(Param{1, 1}, Param{10, 2},
                                           Param{100, 3}, Param{1000, 4},
                                           Param{5000, 5}, Param{30000, 6},
                                           Param{100000, 7}));

// --- Dynamic path: membership bookkeeping regressions --------------------

// Regression for the membership_ clobber: Insert used to overwrite
// membership_[id] for a live id, orphaning the old level list — Erase
// then left stale elements in those levels' max structures and stale
// heavier tau values caused permanent round misses. The fix rejects the
// duplicate outright (ids are element identity: the (weight, id) total
// order and Erase-by-id both depend on uniqueness). Against the pre-fix
// code the second Insert succeeds silently and this death test fails.
TEST(SampledTopKDynamicDeath, ReinsertingLiveIdAborts) {
  Rng rng(41);
  std::vector<Point1D> data = test::RandomPoints1D(5000, &rng);
  ReductionOptions opts;
  opts.seed = 43;
  DynTopK topk(data, opts);
  ASSERT_GT(topk.num_sample_levels(), 0u);  // the clobber needs levels
  // Any live id triggers it — membership is complete, not just sampled.
  Point1D dup = data[17];
  dup.weight += 1.0;
  EXPECT_DEATH(topk.Insert(dup), "TOPK_CHECK");
}

// Insert-erase-reinsert cycles must leave every level's max structure
// exactly consistent with membership_ (AuditInvariants cross-checks the
// reference counts in all builds and enumerates the levels under
// TOPK_AUDIT), and queries exact.
TEST(SampledTopKDynamic, InsertEraseReinsertKeepsLevelsConsistent) {
  Rng rng(44);
  std::vector<Point1D> data = test::RandomPoints1D(6000, &rng);
  ReductionOptions opts;
  opts.seed = 45;
  DynTopK topk(data, opts);
  ASSERT_GT(topk.num_sample_levels(), 0u);
  // Cycle a fixed cohort: erase, then re-insert the SAME ids (legal —
  // they are dead between the two), many times. A lost or stale
  // membership entry breaks the per-level reference-count balance.
  for (int cycle = 0; cycle < 8; ++cycle) {
    for (size_t i = 0; i < 64; ++i) {
      topk.Erase(data[i * 7]);
    }
    topk.AuditInvariants();
    for (size_t i = 0; i < 64; ++i) {
      topk.Insert(data[i * 7]);
    }
    topk.AuditInvariants();
  }
  for (size_t k : {size_t{1}, size_t{10}, size_t{200}}) {
    auto got = topk::Query(topk, {0.0, 1.0}, k);
    auto want = test::BruteTopK<Range1DProblem>(data, {0.0, 1.0}, k);
    EXPECT_EQ(test::IdsOf(got), test::IdsOf(want)) << "k=" << k;
  }
}

// --- Dynamic path: mixed Insert/Erase/Query brute-force sweep ------------

struct DynParam {
  size_t n;
  uint64_t seed;
};

class DynamicSweep : public ::testing::TestWithParam<DynParam> {};

// Deterministic mixed schedule: grow past the 2x rebuild threshold,
// then shrink below the 1/2 threshold (both rebuild directions), with
// brute-force-checked queries and audit sweeps interleaved throughout.
TEST_P(DynamicSweep, MixedUpdatesMatchBruteForce) {
  const DynParam p = GetParam();
  Rng rng(p.seed);
  std::vector<Point1D> mirror = test::RandomPoints1D(p.n, &rng);
  ReductionOptions opts;
  opts.seed = p.seed * 17 + 1;
  DynTopK topk(mirror, opts);
  uint64_t next_id = 1'000'000;

  const auto check = [&] {
    topk.AuditInvariants();
    ASSERT_EQ(topk.size(), mirror.size());
    for (int trial = 0; trial < 3; ++trial) {
      double a = rng.NextDouble(), b = rng.NextDouble();
      if (a > b) std::swap(a, b);
      if (trial == 0) {
        a = 0.0;
        b = 1.0;
      }
      const Range1D q{a, b};
      for (size_t k : {size_t{1}, size_t{8}, size_t{100},
                       mirror.size() + 1}) {
        auto got = topk::Query(topk, q, k);
        auto want = test::BruteTopK<Range1DProblem>(mirror, q, k);
        ASSERT_EQ(test::IdsOf(got), test::IdsOf(want))
            << "n=" << mirror.size() << " k=" << k << " q=[" << a << ","
            << b << "]";
      }
    }
  };

  check();
  // Grow to ~2.5x: crosses n > 2 * built_n at least once. Checks run
  // between 64-op bursts — the audited dev build pays O(n) per query,
  // so the cadence bounds total audit cost while still straddling the
  // rebuild thresholds.
  const size_t grow_target = p.n * 5 / 2 + 4;
  while (mirror.size() < grow_target) {
    for (int burst = 0; burst < 64 && mirror.size() < grow_target;
         ++burst) {
      if (!mirror.empty() && rng.Bernoulli(0.25)) {
        const size_t victim = rng.Below(mirror.size());
        topk.Erase(mirror[victim]);
        mirror[victim] = mirror.back();
        mirror.pop_back();
      } else {
        const Point1D e{rng.NextDouble(), rng.NextDouble() * 1e6,
                        next_id++};
        topk.Insert(e);
        mirror.push_back(e);
      }
    }
    check();
  }
  // Shrink to ~1/5 of the grown size: crosses n < built_n / 2.
  const size_t shrink_target = grow_target / 5;
  while (mirror.size() > shrink_target) {
    for (int burst = 0; burst < 96 && mirror.size() > shrink_target;
         ++burst) {
      const size_t victim = rng.Below(mirror.size());
      topk.Erase(mirror[victim]);
      mirror[victim] = mirror.back();
      mirror.pop_back();
    }
    check();
  }
}

INSTANTIATE_TEST_SUITE_P(DynSweep, DynamicSweep,
                         ::testing::Values(DynParam{16, 1},
                                           DynParam{300, 2},
                                           DynParam{2500, 3}));

}  // namespace
}  // namespace topk
