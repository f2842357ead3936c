// Theorem 2 reduction: exactness across k regimes, round accounting,
// behaviour on tiny inputs (no sample levels), and Lemma 3's premise on
// the derived sample levels.

#include "core/sampled_topk.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
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
// ForEach, so under TOPK_AUDIT AuditInvariants compares every level
// with the live elements its level test selects.
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

// --- Lemma 3's premise on the derived samples ----------------------------

// A max factory that records the sorted ids of every sample it builds,
// in build order (level 0 first, one run per (re)build), so a test reads
// the level sets without a structure accessor.
template <typename Max>
struct RecordingFactory {
  std::vector<std::vector<uint64_t>>* built;
  Max operator()(std::vector<Point1D> sample) const {
    built->push_back(test::SortedIdsOf(sample));
    return Max(std::move(sample));
  }
};

size_t OverlapOf(const std::vector<uint64_t>& a,
                 const std::vector<uint64_t>& b) {
  std::vector<uint64_t> both;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(both));
  return both.size();
}

// Lemma 3 needs each element in R_j with probability 1/K_j,
// independently across elements and levels. Over fixed structure seeds
// at n = 2^16: every level's size is within 6 sigma of its
// Binomial(n, 1/K_j) mean, and the overlaps of levels (0, 1) and
// (0, h-1), pooled over the seeds, are within 6 sigma of
// n / (K_0 K_j) each — a nested or correlated derivation puts nearly
// all of the smaller level inside level 0 and fails.
TEST(SampledTopK, LevelsAreIndependentBernoulliSamples) {
  using Recorded = SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax,
                               DirectFactory<PrioritySearchTree>,
                               RecordingFactory<RangeMax>>;
  constexpr size_t kN = size_t{1} << 16;
  Rng rng(46);
  const std::vector<Point1D> data = test::RandomPoints1D(kN, &rng);
  const double n = static_cast<double>(kN);
  // Binomial(n, p): mean and variance.
  const auto mean = [n](double p) { return n * p; };
  const auto var = [n](double p) { return n * p * (1.0 - p); };

  double first_mean = 0.0, first_var = 0.0, first_got = 0.0;
  double last_mean = 0.0, last_var = 0.0, last_got = 0.0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::vector<std::vector<uint64_t>> levels;
    const Recorded topk(data, {.seed = seed}, {},
                        RecordingFactory<RangeMax>{&levels});
    const size_t h = topk.num_sample_levels();
    ASSERT_GT(h, 2u);
    ASSERT_EQ(levels.size(), h);
    std::vector<double> p(h);
    double K = topk.base_k();
    for (size_t j = 0; j < h; ++j, K *= 1.0 + kThm2Sigma) {
      p[j] = 1.0 / K;
      const double size = static_cast<double>(levels[j].size());
      EXPECT_LE(std::abs(size - mean(p[j])), 6.0 * std::sqrt(var(p[j])))
          << "seed " << seed << " level " << j << " of " << h;
    }
    first_mean += mean(p[0] * p[1]);
    first_var += var(p[0] * p[1]);
    first_got += static_cast<double>(OverlapOf(levels[0], levels[1]));
    last_mean += mean(p[0] * p[h - 1]);
    last_var += var(p[0] * p[h - 1]);
    last_got += static_cast<double>(OverlapOf(levels[0], levels[h - 1]));
  }
  EXPECT_LE(std::abs(first_got - first_mean), 6.0 * std::sqrt(first_var))
      << "|R_0 & R_1| summed over seeds";
  EXPECT_LE(std::abs(last_got - last_mean), 6.0 * std::sqrt(last_var))
      << "|R_0 & R_(h-1)| summed over seeds";
}

// Every (re)build draws a fresh salt: growing past 2n rebuilds, and the
// rebuilt level 0 is a new draw over the original ids. Under a fixed
// salt it would be a subset of the old level 0 (the same hash against a
// cutoff that only shrinks as K_0 grows with n).
TEST(SampledTopK, RebuildRedrawsTheSamples) {
  using Recorded =
      SampledTopK<Range1DProblem, DynamicPst, DynamicRangeMax,
                  DirectFactory<DynamicPst>, RecordingFactory<DynamicRangeMax>>;
  constexpr size_t kN = size_t{1} << 14;
  Rng rng(47);
  const std::vector<Point1D> data = test::RandomPoints1D(kN, &rng);
  std::vector<std::vector<uint64_t>> built;
  Recorded topk(data, {.seed = 48}, {},
                RecordingFactory<DynamicRangeMax>{&built});
  const size_t h = topk.num_sample_levels();
  ASSERT_GT(h, 0u);
  ASSERT_EQ(built.size(), h);
  const std::vector<uint64_t> old_level0 = built[0];
  for (size_t i = 0; i <= kN; ++i) {
    topk.Insert({rng.NextDouble(), rng.NextDouble(), kN + 1'000'000 + i});
  }
  // Exactly one rebuild, at n = 2 kN + 1.
  ASSERT_EQ(built.size(), h + topk.num_sample_levels());
  const std::vector<uint64_t>& new_level0 = built[h];
  std::vector<uint64_t> old_ids_redrawn;
  for (uint64_t id : new_level0) {
    if (id < kN + 1'000'000) old_ids_redrawn.push_back(id);
  }
  ASSERT_FALSE(old_ids_redrawn.empty());
  EXPECT_FALSE(std::includes(old_level0.begin(), old_level0.end(),
                             old_ids_redrawn.begin(), old_ids_redrawn.end()))
      << "the rebuild reused the old salt";
}

// --- Dynamic path: level consistency under updates ----------------------

// Re-inserting a live id breaks the library-wide unique-id precondition
// (common/weighted.h). SampledTopK does not check it: the check lives
// where ids enter, in DurableStore in every build and in the audit
// wrappers' mirrors in the -DTOPK_AUDIT=ON tree, where this test runs.
TEST(SampledTopKDynamicDeath, ReinsertingLiveIdAborts) {
#ifndef TOPK_AUDIT
  GTEST_SKIP() << "the live-id check is the audit wrappers' "
                  "(-DTOPK_AUDIT=ON, the dev preset's tree)";
#endif
  Rng rng(41);
  std::vector<Point1D> data = test::RandomPoints1D(5000, &rng);
  ReductionOptions opts;
  opts.seed = 43;
  DynTopK topk(data, opts);
  ASSERT_GT(topk.num_sample_levels(), 0u);  // the clobber needs levels
  // Any live id triggers it, sampled into a level or not.
  Point1D dup = data[17];
  dup.weight += 1.0;
  EXPECT_DEATH(topk.Insert(dup), "TOPK_CHECK");
}

// Insert-erase-reinsert cycles must leave every level's max structure
// holding exactly the live elements its level test selects
// (AuditInvariants enumerates the levels under TOPK_AUDIT), and queries
// exact.
TEST(SampledTopKDynamic, InsertEraseReinsertKeepsLevelsConsistent) {
  Rng rng(44);
  std::vector<Point1D> data = test::RandomPoints1D(6000, &rng);
  ReductionOptions opts;
  opts.seed = 45;
  DynTopK topk(data, opts);
  ASSERT_GT(topk.num_sample_levels(), 0u);
  // Cycle a fixed cohort: erase, then re-insert the SAME ids (legal —
  // they are dead between the two), many times. An element Erase leaves
  // in a level, or Insert misses, breaks the audit's level sets.
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
