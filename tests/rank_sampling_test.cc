// Rank sampling (Lemmas 1 and 3) and core-sets (Lemma 2): structural
// properties plus empirical validation of the probabilistic guarantees.

#include "core/rank_sampling.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/weighted.h"
#include "core/core_set.h"
#include "range1d/point1d.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::Point1D;

TEST(PSample, ZeroProbabilityIsEmpty) {
  Rng rng(1);
  std::vector<Point1D> data = test::RandomPoints1D(100, &rng);
  EXPECT_TRUE(PSample(data, 0.0, &rng).empty());
  EXPECT_TRUE(PSample(data, -1.0, &rng).empty());
}

TEST(PSample, FullProbabilityKeepsAll) {
  Rng rng(2);
  std::vector<Point1D> data = test::RandomPoints1D(100, &rng);
  EXPECT_EQ(PSample(data, 1.0, &rng).size(), 100u);
  EXPECT_EQ(PSample(data, 2.0, &rng).size(), 100u);
}

TEST(PSample, SampleIsSubsetWithExpectedSize) {
  Rng rng(3);
  std::vector<Point1D> data = test::RandomPoints1D(20000, &rng);
  std::vector<Point1D> sample = PSample(data, 0.1, &rng);
  // Within 5 sigma of np = 2000 (sigma ~ 42).
  EXPECT_GT(sample.size(), 1780u);
  EXPECT_LT(sample.size(), 2220u);
  auto all = test::SortedIdsOf(data);
  for (const Point1D& p : sample) {
    EXPECT_TRUE(std::binary_search(all.begin(), all.end(), p.id));
  }
}

TEST(Lemma1Helpers, RankAndCondition) {
  EXPECT_EQ(Lemma1SampleRank(100, 0.1), 20u);
  EXPECT_EQ(Lemma1SampleRank(3, 0.5), 3u);
  EXPECT_TRUE(Lemma1ConditionHolds(1000, 0.1, 0.5));
  EXPECT_FALSE(Lemma1ConditionHolds(10, 0.001, 0.01));
}

// Empirical Lemma 1: with kp >= 3 ln(3/delta) and n >= 4k, the rank-
// ceil(2kp) sample element lands in ground rank [k, 4k] with probability
// >= 1 - delta.
TEST(Lemma1, EmpiricalSuccessProbability) {
  Rng rng(4);
  const size_t n = 4000, k = 100;
  const double delta = 0.2;
  const double p = 3.0 * std::log(3.0 / delta) / static_cast<double>(k);
  ASSERT_TRUE(Lemma1ConditionHolds(k, p, delta));
  ASSERT_GE(n, 4 * k);

  std::vector<Point1D> data = test::RandomPoints1D(n, &rng);
  std::vector<Point1D> sorted = data;
  std::sort(sorted.begin(), sorted.end(), ByWeightDesc());

  const int trials = 400;
  int successes = 0;
  for (int t = 0; t < trials; ++t) {
    std::vector<Point1D> sample = PSample(data, p, &rng);
    const size_t r = Lemma1SampleRank(k, p);
    if (static_cast<double>(sample.size()) <=
        2.0 * static_cast<double>(k) * p) {
      continue;  // first bullet failed
    }
    std::sort(sample.begin(), sample.end(), ByWeightDesc());
    if (sample.size() < r) continue;
    const Point1D& e = sample[r - 1];
    size_t ground_rank = 0;
    for (; ground_rank < sorted.size(); ++ground_rank) {
      if (sorted[ground_rank].id == e.id) break;
    }
    ++ground_rank;  // 1-based
    if (ground_rank >= k && ground_rank <= 4 * k) ++successes;
  }
  // Lemma promises >= 1 - delta = 0.8; leave slack for test stability.
  EXPECT_GT(successes, static_cast<int>(0.7 * trials));
}

// Empirical Lemma 3: a (1/K)-sample's max has ground rank in (K, 4K]
// and the sample is non-empty, together with probability >= 0.09.
TEST(Lemma3, EmpiricalSuccessProbability) {
  Rng rng(5);
  const size_t n = 2000;
  const double K = 50.0;
  std::vector<Point1D> data = test::RandomPoints1D(n, &rng);
  std::vector<Point1D> sorted = data;
  std::sort(sorted.begin(), sorted.end(), ByWeightDesc());

  const int trials = 2000;
  int successes = 0;
  for (int t = 0; t < trials; ++t) {
    std::vector<Point1D> sample = PSample(data, 1.0 / K, &rng);
    if (sample.empty()) continue;
    const Point1D* mx = &sample[0];
    for (const Point1D& e : sample) {
      if (HeavierThan(e, *mx)) mx = &e;
    }
    size_t ground_rank = 0;
    for (; ground_rank < sorted.size(); ++ground_rank) {
      if (sorted[ground_rank].id == mx->id) break;
    }
    ++ground_rank;
    const double rank = static_cast<double>(ground_rank);
    if (rank > K && rank <= 4 * K) ++successes;
  }
  EXPECT_GT(successes, static_cast<int>(0.09 * trials));
}

TEST(CoreSet, ProbabilityFormula) {
  // p = 4 * (lambda/K) * ln n, clamped.
  EXPECT_DOUBLE_EQ(CoreSetProbability(1000, 1e9, 2.0, 1.0),
                   4.0 * (2.0 / 1e9) * std::log(1000.0));
  EXPECT_EQ(CoreSetProbability(1000, 0.001, 2.0, 1.0), 1.0);  // clamped
  EXPECT_EQ(CoreSetProbability(0, 10, 2.0, 1.0), 0.0);
}

TEST(CoreSet, RankFormula) {
  EXPECT_EQ(CoreSetRank(1, 2.0, 1.0), 1u);
  const size_t r = CoreSetRank(1000, 2.0, 1.0);
  EXPECT_EQ(r, static_cast<size_t>(std::ceil(16.0 * std::log(1000.0))));
  EXPECT_GE(CoreSetRank(1000, 2.0, 0.0001), 1u);  // floor at 1
}

TEST(CoreSet, BuilderRespectsMarkovSizeBound) {
  Rng rng(6);
  std::vector<Point1D> data = test::RandomPoints1D(50000, &rng);
  const double K = 2000;
  std::vector<Point1D> core = BuildCoreSet(data, K, 2.0, 1.0, &rng);
  const double bound =
      3.0 * CoreSetProbability(data.size(), K, 2.0, 1.0) * 50000.0;
  EXPECT_LE(static_cast<double>(core.size()), bound);
}

// True iff `sub` is `data` with some elements dropped, order kept.
bool IsSubsequence(const std::vector<Point1D>& sub,
                   const std::vector<Point1D>& data) {
  size_t j = 0;
  for (const Point1D& e : data) {
    if (j < sub.size() && sub[j].id == e.id && sub[j].x == e.x &&
        sub[j].weight == e.weight) {
      ++j;
    }
  }
  return j == sub.size();
}

// Every seed here lands in a draw that fits 3np: a draw misses the
// Markov bound with probability <= 1/3, so all kMaxCoreSetAttempts miss
// with probability <= 3^-16, and no seed tried reaches the
// smallest-draw fallback. That branch stays untested.
TEST(CoreSet, BuilderDrawsASubsetWithinTheSizeBound) {
  Rng gen(8);
  const std::vector<Point1D> data = test::RandomPoints1D(20000, &gen);
  const double K = 500, lambda = 2.0;
  const double bound =
      3.0 * CoreSetProbability(data.size(), K, lambda, 1.0) * 20000.0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const std::vector<Point1D> core = BuildCoreSet(data, K, lambda, 1.0, &rng);
    EXPECT_FALSE(core.empty());
    EXPECT_LE(static_cast<double>(core.size()), bound);
    EXPECT_TRUE(IsSubsequence(core, data));
  }
}

TEST(CoreSet, BuilderIsDeterministicPerSeed) {
  Rng gen(9);
  const std::vector<Point1D> data = test::RandomPoints1D(20000, &gen);
  Rng a(42), b(42), c(43);
  const std::vector<uint64_t> first =
      test::IdsOf(BuildCoreSet(data, 500.0, 2.0, 1.0, &a));
  EXPECT_EQ(first, test::IdsOf(BuildCoreSet(data, 500.0, 2.0, 1.0, &b)));
  EXPECT_NE(first, test::IdsOf(BuildCoreSet(data, 500.0, 2.0, 1.0, &c)));
}

// For small K, p = 4*(lambda/K)*ln n exceeds 1 and clamps to it: the
// core-set is the whole input.
TEST(CoreSet, BuilderKeepsEveryElementWhenPClampsToOne) {
  Rng gen(10);
  const std::vector<Point1D> data = test::RandomPoints1D(1000, &gen);
  const double K = 4.0;
  ASSERT_EQ(CoreSetProbability(data.size(), K, 2.0, 1.0), 1.0);
  Rng rng(11);
  EXPECT_EQ(test::IdsOf(BuildCoreSet(data, K, 2.0, 1.0, &rng)),
            test::IdsOf(data));
}

// The core-set property that the reductions rely on, checked directly:
// for a large-|q(D)| query, the rank-ceil(8*lambda*ln n) element of q(R)
// has ground rank in [K, 4K] within q(D) — at least most of the time.
TEST(CoreSet, PivotRankLandsInWindow) {
  Rng rng(7);
  const size_t n = 60000;
  const double K = 1500;
  const double lambda = 2.0;
  std::vector<Point1D> data = test::RandomPoints1D(n, &rng);

  int successes = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    std::vector<Point1D> core = BuildCoreSet(data, K, lambda, 1.0, &rng);
    // q = full domain: |q(D)| = n >= 4K.
    std::vector<Point1D> core_sorted = core;
    std::sort(core_sorted.begin(), core_sorted.end(), ByWeightDesc());
    const size_t r = CoreSetRank(n, lambda, 1.0);
    ASSERT_LT(r, core_sorted.size());
    const Point1D& e = core_sorted[r - 1];
    // Ground rank of e in D.
    size_t ground_rank = 1;
    for (const Point1D& d : data) {
      if (HeavierThan(d, e)) ++ground_rank;
    }
    const double rank = static_cast<double>(ground_rank);
    if (rank >= K && rank <= 4 * K) ++successes;
  }
  // With the paper constants this holds w.h.p.; demand a strong majority.
  EXPECT_GT(successes, trials * 8 / 10);
}

}  // namespace
}  // namespace topk
