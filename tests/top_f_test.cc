// TopFChain internals (Section 3.2's nested core-set structure) tested
// directly: level shrinkage, the k <= f contract against brute force,
// and failure signalling on truncated chains. QueryTopF promises its
// top-f as a set, not an order, so results are compared as id sets plus
// the one rank a chain level reads. Lemma2Step is driven exit by exit
// with hand-made deeper pools, and the bottom-up walk is pinned to
// fetch no pool it then throws away.

#include "core/top_f.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "common/weighted.h"
#include "core/core_set.h"
#include "core/core_set_topk.h"
#include "parallel/flat_scan.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "test_util.h"
#include "trace/tracer.h"

namespace topk {
namespace {

using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;

using Chain = TopFChain<Range1DProblem, PrioritySearchTree>;

// `top` holds exactly the ids of `want` (brute force's top-f, heaviest
// first), and the pivot a chain level reads — std::nth_element at rank
// CoreSetRank(n) — is brute force's element of that rank.
void ExpectTopF(ScratchVec<Point1D>* top, const std::vector<Point1D>& want,
                size_t n) {
  EXPECT_EQ(test::SortedIdsOf(top->vec()), test::SortedIdsOf(want));
  const size_t rank = CoreSetRank(n, Range1DProblem::kLambda, 1.0);
  if (top->size() < rank || want.size() < rank) return;
  std::nth_element(top->begin(), top->begin() + (rank - 1), top->end(),
                   ByWeightDesc());
  EXPECT_EQ((*top)[rank - 1].id, want[rank - 1].id);
}

TEST(TopFChain, SingleLevelWhenSmall) {
  Rng rng(1);
  std::vector<Point1D> data = test::RandomPoints1D(100, &rng);
  Chain chain(data, /*f=*/50, /*constant_scale=*/1.0, &rng);
  EXPECT_EQ(chain.num_levels(), 1u);  // 100 <= 4 * 50
  Scratch scratch;
  auto top = chain.QueryTopF({0.0, 1.0}, &scratch, nullptr);
  ASSERT_TRUE(top.has_value());
  auto want = test::BruteTopK<Range1DProblem>(data, {0.0, 1.0}, 50);
  ExpectTopF(&*top, want, data.size());
}

TEST(TopFChain, LevelsShrinkGeometrically) {
  Rng rng(2);
  std::vector<Point1D> data = test::RandomPoints1D(60000, &rng);
  const size_t f = CoreSetRank(60000, Range1DProblem::kLambda, 1.0) * 2;
  Chain chain(data, f, 1.0, &rng);
  ASSERT_GT(chain.num_levels(), 1u);
  for (size_t j = 1; j < chain.num_levels(); ++j) {
    EXPECT_LT(chain.level_size(j), chain.level_size(j - 1));
  }
  EXPECT_EQ(chain.level_size(0), 60000u);
}

TEST(TopFChain, TopFMatchesBruteAcrossLevelsAndRanges) {
  Rng rng(3);
  std::vector<Point1D> data = test::RandomPoints1D(30000, &rng);
  const size_t f = 300;
  Chain chain(data, f, 1.0, &rng);
  Scratch scratch;
  int failures = 0;
  for (int trial = 0; trial < 30; ++trial) {
    double a = rng.NextDouble(), b = rng.NextDouble();
    if (a > b) std::swap(a, b);
    auto top = chain.QueryTopF({a, b}, &scratch, nullptr);
    if (!top.has_value()) {
      ++failures;  // allowed (unlucky core-set) but must be rare
      continue;
    }
    auto want = test::BruteTopK<Range1DProblem>(data, {a, b}, f);
    ExpectTopF(&*top, want, data.size());
  }
  EXPECT_LE(failures, 2);
}

TEST(TopFChain, EmptyPredicateReturnsEmpty) {
  Rng rng(4);
  Chain chain(test::RandomPoints1D(5000, &rng), 100, 1.0, &rng);
  Scratch scratch;
  auto top = chain.QueryTopF({2.0, 3.0}, &scratch, nullptr);
  ASSERT_TRUE(top.has_value());
  EXPECT_TRUE(top->empty());
}

TEST(TopFChain, StatsChargedPerLevel) {
  Rng rng(5);
  std::vector<Point1D> data = test::RandomPoints1D(40000, &rng);
  Chain chain(data, 200, 1.0, &rng);
  QueryStats stats;
  Scratch scratch;
  // Whole domain: deep recursion.
  chain.QueryTopF({0.0, 1.0}, &scratch, &stats);
  EXPECT_GE(stats.prioritized_queries, chain.num_levels());
}

// --- Lemma2Step, exit by exit ---------------------------------------------

// One monitored fetch as its span recorded it.
struct Fetch {
  uint64_t budget;
  bool hit;
  bool operator==(const Fetch&) const = default;
};

std::vector<Fetch> FetchesOf(const trace::Tracer& tracer) {
  std::vector<Fetch> out;
  for (const trace::Tracer::Event& e : tracer.events()) {
    if (std::strcmp(e.name, "monitored_query") == 0) {
      out.push_back({test::ArgOr0(e, "budget"),
                     test::ArgOr0(e, "hit_budget") != 0});
    }
  }
  return out;
}

// Lemma2Step on n = 4000 points with K = 50, k_out = 40 and
// constant_scale = 0.1 (pivot rank 14). Each case hands the step a
// deeper top-f built by hand from q(X) and checks the fetches it makes
// (budget, hit) and its answer against brute force. The cases cover
// every exit: a set too small to need a pivot; no deeper set; a deeper
// pool short of the rank; a pivot that answers; a pivot too high, so
// fewer than k_out reach it and the probe decides; a pivot too deep,
// so its fetch hits the budget.
TEST(Lemma2Step, EveryExitMatchesBruteForce) {
  constexpr size_t K = 50;
  constexpr size_t kOut = 40;
  constexpr double kScale = 0.1;
  constexpr uint64_t kProbe = 4 * K + 1;
  constexpr uint64_t kPivotFetch = 8 * K + 1;
  Rng rng(24);
  const std::vector<Point1D> data = test::RandomPoints1D(4000, &rng);
  const size_t rank = CoreSetRank(data.size(), Range1DProblem::kLambda,
                                  kScale);
  ASSERT_EQ(rank, 14u);
  const PrioritySearchTree pst(data);
  const std::vector<Point1D> small_data(data.begin(), data.begin() + 4 * K);
  const PrioritySearchTree small_pst(small_data);
  const parallel::FlatSource<PrioritySearchTree, Point1D> flat;
  const Range1D narrow{0.5, 0.52};  // ~80 matches: <= 4K
  const Range1D wide{0.1, 0.9};     // ~3200 matches: > 8K + 1

  // The matches of q heaviest first, so a case can take any ranks.
  auto matches = [&](const Range1D& q) {
    return test::BruteTopK<Range1DProblem>(data, q, data.size());
  };
  ASSERT_LE(matches(narrow).size(), 4 * K);
  ASSERT_GT(matches(narrow).size(), kOut);
  ASSERT_GT(matches(wide).size(), kPivotFetch);

  struct Case {
    const char* name;
    const PrioritySearchTree* pri;
    const std::vector<Point1D>* set;
    Range1D q;
    // Ranks [first, first + count) of q(X) (heaviest first) form the
    // deeper top-f; count 0 means no deeper set (nullopt).
    size_t first, count;
    std::vector<Fetch> fetches;
    bool answers;
  };
  const size_t wide_n = matches(wide).size();
  const Case cases[] = {
      {"small set, no deeper call", &small_pst, &small_data, wide, 0, 0,
       {{kProbe, false}}, true},
      {"no deeper set, probe completes", &pst, &data, narrow, 0, 0,
       {{kProbe, false}}, true},
      {"no deeper set, probe hits", &pst, &data, wide, 0, 0,
       {{kProbe, true}}, false},
      {"deeper pool short of the rank", &pst, &data, narrow, 0, rank - 1,
       {{kProbe, false}}, true},
      {"pivot answers", &pst, &data, wide, 2 * K - rank, rank,
       {{kPivotFetch, false}}, true},
      {"pivot too high, probe completes", &pst, &data, narrow, 0, rank,
       {{kPivotFetch, false}, {kProbe, false}}, true},
      {"pivot too high, probe hits", &pst, &data, wide, 0, rank,
       {{kPivotFetch, false}, {kProbe, true}}, false},
      {"pivot too deep", &pst, &data, wide, wide_n - rank, rank,
       {{kPivotFetch, true}}, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<Point1D> sorted =
        test::BruteTopK<Range1DProblem>(*c.set, c.q, c.set->size());
    Scratch scratch;
    trace::Tracer tracer(64);
    bool deeper_called = false;
    auto deeper = [&]() -> std::optional<ScratchVec<Point1D>> {
      deeper_called = true;
      if (c.count == 0) return std::nullopt;
      ScratchVec<Point1D> pool = scratch.Borrow<Point1D>();
      pool.vec().assign(sorted.begin() + c.first,
                        sorted.begin() + c.first + c.count);
      return pool;
    };
    std::optional<ScratchVec<Point1D>> top = Lemma2Step<Range1DProblem>(
        *c.pri, flat, kScale, c.q, K, kOut, deeper, &scratch, nullptr,
        &tracer, nullptr);
    EXPECT_EQ(deeper_called, c.pri->size() > 4 * K);
    EXPECT_EQ(FetchesOf(tracer), c.fetches);
    ASSERT_EQ(top.has_value(), c.answers);
    // No pool outlives the step except its answer.
    EXPECT_EQ(scratch.outstanding(), c.answers ? 1u : 0u);
    if (top.has_value()) {
      const std::vector<Point1D> want(
          sorted.begin(), sorted.begin() + std::min(kOut, sorted.size()));
      EXPECT_EQ(test::SortedIdsOf(top->vec()), test::SortedIdsOf(want));
    }
  }
}

// The bottom-up walk fetches no pool only to discard it. At n = 2^15
// and B = 4 (f = 720) the small-k chain has >= 2 levels and the ladder
// has rungs. Over wide ranges, with the paper's constants, every Lemma 2
// step — each chain level ("topf_level") and the ladder rung
// ("thm1_query") — makes exactly one monitored fetch, and that fetch
// completes: its pool is the step's answer. A probe-first step would
// hit its 4K + 1 budget at every level whose range holds more than 4K.
TEST(Lemma2Step, WideRangesFetchNoDiscardedProbe) {
  using S = CoreSetTopK<Range1DProblem, PrioritySearchTree>;
  Rng rng(10);
  const size_t n = size_t{1} << 15;
  const std::vector<Point1D> data = test::RandomPoints1D(n, &rng);
  const S s(data, {.block_size = 4});
  const size_t f = s.f();
  ASSERT_EQ(f, 720u);
  ASSERT_GE(s.num_chain_levels(), 2u);
  const size_t ladder_k = 3000;  // rung K = 8f = 5760, with n > 4K
  ASSERT_LT(ladder_k, n / 2);
  Scratch scratch;
  trace::Tracer tracer(256);
  std::vector<Point1D> got;
  for (const Range1D& q : {Range1D{0.0, 1.0}, Range1D{0.1, 0.9},
                           Range1D{0.2, 0.5}}) {
    for (const size_t k : {size_t{16}, f, ladder_k}) {
      SCOPED_TRACE(::testing::Message() << "q=[" << q.lo << "," << q.hi
                                        << "] k=" << k);
      tracer.Clear();
      QueryStats stats;
      s.QueryInto(q, k, &scratch, &got, &stats, &tracer, nullptr);
      EXPECT_EQ(test::IdsOf(got),
                test::IdsOf(test::BruteTopK<Range1DProblem>(data, q, k)));
      EXPECT_EQ(stats.fallbacks, 0u);
      ASSERT_EQ(tracer.dropped(), 0u);
      for (const Fetch& fetch : FetchesOf(tracer)) {
        EXPECT_FALSE(fetch.hit) << "budget " << fetch.budget;
      }
      // Fetches per step, keyed by the enclosing span's id.
      const std::vector<trace::Tracer::Event>& events = tracer.events();
      size_t steps = 0;
      for (const trace::Tracer::Event& step : events) {
        const bool level = std::strcmp(step.name, "topf_level") == 0;
        const bool rung = std::strcmp(step.name, "thm1_query") == 0 && k > f;
        if (!level && !rung) continue;
        ++steps;
        const auto fetches = std::count_if(
            events.begin(), events.end(), [&](const trace::Tracer::Event& e) {
              return e.parent == step.id &&
                     std::strcmp(e.name, "monitored_query") == 0;
            });
        EXPECT_EQ(fetches, 1) << step.name << " level "
                              << test::ArgOr0(step, "level");
      }
      // Every chain level, or the rung plus its chain's levels.
      EXPECT_GE(steps, k <= f ? s.num_chain_levels() : size_t{2});
    }
  }
}

}  // namespace
}  // namespace topk
