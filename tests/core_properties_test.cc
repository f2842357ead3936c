// Cross-cutting properties of the core framework:
//   * the structure concepts accept every shipped structure (and the one
//     top-k signature rejects the retired value-only and counting-tail
//     shapes);
//   * MonitoredQuery budget semantics at exact boundaries;
//   * determinism: same data + seed => identical structures and answers;
//   * emission-order independence: the reductions stay exact over a
//     prioritized structure that emits in the most adversarial order
//     (ascending weight — the opposite of every shipped structure);
//   * results are always sorted heaviest-first;
//   * QueryStats accumulation.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "audit/checked_prioritized.h"
#include "circle/circular.h"
#include "common/kselect.h"
#include "common/random.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/binary_search_topk.h"
#include "core/core_set_topk.h"
#include "core/counting_topk.h"
#include "core/factory.h"
#include "core/problem.h"
#include "core/sampled_topk.h"
#include "core/scan_topk.h"
#include "core/sink.h"
#include "dominance/point3.h"
#include "enclosure/enclosure_structures.h"
#include "halfspace/halfspace_structures.h"
#include "interval/interval_tree_stab.h"
#include "interval/seg_stab.h"
#include "interval/stab_max.h"
#include "parallel/context.h"
#include "parallel/flat_scan.h"
#include "range1d/count_tree.h"
#include "range1d/direct_topk.h"
#include "range1d/dyn_pst.h"
#include "range1d/dyn_range_max.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "serve/shareable.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;
using range1d::RangeMax;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// --- Concepts accept every shipped structure ---------------------------

static_assert(ProblemDef<Range1DProblem>);
static_assert(ProblemDef<interval::StabProblem>);
static_assert(ProblemDef<enclosure::EnclosureProblem>);
static_assert(ProblemDef<halfspace::HalfplaneProblem>);
static_assert(ProblemDef<dominance::DominanceProblem>);
static_assert(ProblemDef<circle::CircularProblem>);

static_assert(PrioritizedStructure<PrioritySearchTree, Range1DProblem>);
static_assert(PrioritizedStructure<range1d::DynamicPst, Range1DProblem>);
static_assert(
    PrioritizedStructure<interval::SegmentStabbing, interval::StabProblem>);
static_assert(PrioritizedStructure<interval::IntervalTreeStab,
                                   interval::StabProblem>);
static_assert(PrioritizedStructure<enclosure::EnclosurePrioritized,
                                   enclosure::EnclosureProblem>);
static_assert(PrioritizedStructure<halfspace::HalfspacePrioritized,
                                   halfspace::HalfplaneProblem>);
static_assert(PrioritizedStructure<dominance::DominanceKdTree,
                                   dominance::DominanceProblem>);
static_assert(
    PrioritizedStructure<circle::CircularKdTree, circle::CircularProblem>);

static_assert(MaxStructure<RangeMax, Range1DProblem>);
static_assert(MaxStructure<range1d::DynamicRangeMax, Range1DProblem>);
static_assert(MaxStructure<interval::SlabStabMax, interval::StabProblem>);
static_assert(
    MaxStructure<enclosure::EnclosureMax, enclosure::EnclosureProblem>);
static_assert(
    MaxStructure<halfspace::HalfspaceMax, halfspace::HalfplaneProblem>);
static_assert(
    MaxStructure<dominance::DominanceKdTree, dominance::DominanceProblem>);

// --- Negative concept tests ---------------------------------------------
// Each Broken* structure mangles exactly one signature requirement and
// must fail its concept. If one of these static_asserts ever fails, the
// concept stopped checking that requirement — the contract gate has a
// hole, not the structure.

// Missing QueryCostBound: the reductions size f and the K_i ladder from
// it, so a prioritized structure without it is unusable.
struct BrokenNoCostBound {
  using Element = Point1D;
  size_t size() const { return 0; }
  template <typename Emit>
  void QueryPrioritized(const Range1D&, double, Emit&&,
                        QueryStats*) const {}
};
static_assert(!PrioritizedStructure<BrokenNoCostBound, Range1DProblem>);

// Non-const query path: the concepts require querying through a const
// reference, so hidden mutation fails here, not at engine build time.
struct BrokenNonConstQuery {
  using Element = Point1D;
  size_t size() const { return 0; }
  static double QueryCostBound(size_t, size_t) { return 1.0; }
  template <typename Emit>
  void QueryPrioritized(const Range1D&, double, Emit&&, QueryStats*) {}
};
static_assert(!PrioritizedStructure<BrokenNonConstQuery, Range1DProblem>);

// Missing size(): cost monitoring computes budgets from it.
struct BrokenNoSize {
  using Element = Point1D;
  static double QueryCostBound(size_t, size_t) { return 1.0; }
  template <typename Emit>
  void QueryPrioritized(const Range1D&, double, Emit&&,
                        QueryStats*) const {}
};
static_assert(!PrioritizedStructure<BrokenNoSize, Range1DProblem>);

// Max structure that dropped the stats out-param.
struct BrokenMaxNoStats {
  using Element = Point1D;
  size_t size() const { return 0; }
  static double QueryCostBound(size_t, size_t) { return 1.0; }
  std::optional<Point1D> QueryMax(const Range1D&) const { return {}; }
};
static_assert(!MaxStructure<BrokenMaxNoStats, Range1DProblem>);

// Counter whose Count does not return a count.
struct BrokenCounterVoidCount {
  using Element = Point1D;
  size_t size() const { return 0; }
  void Count(const Range1D&, double, QueryStats*) const {}
};
static_assert(!CounterStructure<BrokenCounterVoidCount, Range1DProblem>);
static_assert(CounterStructure<range1d::CountTree, Range1DProblem>);

// Insert without Erase is not a dynamic structure.
struct BrokenInsertOnly {
  void Insert(const Point1D&) {}
};
static_assert(!DynamicStructure<BrokenInsertOnly, Range1DProblem>);
static_assert(DynamicStructure<range1d::DynamicPst, Range1DProblem>);
static_assert(!DynamicStructure<PrioritySearchTree, Range1DProblem>);

// Slot sources of the sharded flat kernel: the static PST (and its
// audited wrapper) is its own, a dynamic PST has no stable slots, and a
// slot read by value is no slot.
static_assert(parallel::SlotAddressable<PrioritySearchTree, Point1D>);
static_assert(parallel::SlotAddressable<
              audit::CheckedPrioritized<PrioritySearchTree, Range1DProblem>,
              Point1D>);
static_assert(!parallel::SlotAddressable<range1d::DynamicPst, Point1D>);
struct BrokenSlotByValue {
  size_t size() const { return 0; }
  Point1D ElementAt(size_t) const { return {}; }
};
static_assert(!parallel::SlotAddressable<BrokenSlotByValue, Point1D>);

// A problem without the polynomial-boundedness exponent.
struct BrokenProblemNoLambda {
  using Element = Point1D;
  using Predicate = Range1D;
  static bool Matches(const Range1D&, const Point1D&) { return true; }
};
static_assert(!ProblemDef<BrokenProblemNoLambda>);

// A factory must produce exactly the substrate type.
struct WrongTypeFactory {
  std::vector<Point1D> operator()(std::vector<Point1D> data) const {
    return data;
  }
};
static_assert(
    StructureFactory<DirectFactory<PrioritySearchTree>,
                     PrioritySearchTree, Point1D>);
static_assert(
    !StructureFactory<WrongTypeFactory, PrioritySearchTree, Point1D>);

// Every reduction must export its substrate aliases — they are what
// lets serve/shareable.h's thread-sharing gate recurse into substrate
// markers; deleting one silently blinds the gate, so pin them here.
static_assert(requires {
  typename CoreSetTopK<Range1DProblem, PrioritySearchTree>::Prioritized;
  typename BinarySearchTopK<Range1DProblem,
                            PrioritySearchTree>::Prioritized;
  typename SampledTopK<Range1DProblem, PrioritySearchTree,
                       RangeMax>::Prioritized;
  typename SampledTopK<Range1DProblem, PrioritySearchTree,
                       RangeMax>::MaxSubstrate;
  typename CountingTopK<Range1DProblem, PrioritySearchTree,
                        range1d::CountTree>::Prioritized;
  typename CountingTopK<Range1DProblem, PrioritySearchTree,
                        range1d::CountTree>::CounterStructure;
});

// --- The one top-k signature ----------------------------------------------
// Every shipped top-k structure implements exactly
//   QueryInto(q, k, scratch, out, stats, tracer, par)
// — the static and dynamic reductions, the scan baseline, and the direct
// heap-selection structure.

static_assert(
    TopKStructure<CoreSetTopK<Range1DProblem, PrioritySearchTree>>);
static_assert(TopKStructure<
              SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax>>);
static_assert(TopKStructure<SampledTopK<Range1DProblem, range1d::DynamicPst,
                                        range1d::DynamicRangeMax>>);
static_assert(
    TopKStructure<BinarySearchTopK<Range1DProblem, PrioritySearchTree>>);
static_assert(TopKStructure<CountingTopK<Range1DProblem, PrioritySearchTree,
                                         range1d::CountTree>>);
static_assert(TopKStructure<ScanTopK<Range1DProblem>>);
static_assert(TopKStructure<range1d::HeapSelectTopK>);

// A value-only Query with no scratch-threaded entry point is not a
// top-k structure: the serving layer could not answer into a warm slot.
struct BrokenValueOnlyQuery {
  using Element = Point1D;
  using Predicate = Range1D;
  size_t size() const { return 0; }
  std::vector<Point1D> Query(const Range1D&, size_t, QueryStats*) const {
    return {};
  }
};
static_assert(!TopKStructure<BrokenValueOnlyQuery>);

// The old counting tail (..., stats, par) without the tracer slot is a
// different signature, not a variant the concept tolerates.
struct BrokenCountingTail {
  using Element = Point1D;
  using Predicate = Range1D;
  size_t size() const { return 0; }
  void QueryInto(const Range1D&, size_t, Scratch*, std::vector<Point1D>*,
                 QueryStats*, parallel::Context*) const {}
};
static_assert(!TopKStructure<BrokenCountingTail>);

// --- Thread-shareability gate (serve/shareable.h) ------------------------

// A memoizing top-k structure: QueryInto is const but caches the last
// answer in a mutable member — correct single-threaded, a data race under the
// engine. Its mutable query state is declared via the kThreadSafeQuery
// marker and the gate rejects it. (The *undeclared* variant — a mutable
// member with no marker in its own class — is exactly what
// tools/analyze.py's per-class posture rule flags in src/; the type
// system cannot see it.)
class MemoizedTopK {
 public:
  using Element = Point1D;
  using Predicate = Range1D;
  static constexpr bool kThreadSafeQuery = false;

  explicit MemoizedTopK(std::vector<Point1D> data)
      : data_(std::move(data)) {}
  size_t size() const { return data_.size(); }
  void QueryInto(const Range1D& q, size_t k, Scratch*,
                 std::vector<Point1D>* out, QueryStats*, trace::Tracer*,
                 parallel::Context*) const {
    cache_ = test::BruteTopK<Range1DProblem>(data_, q, k);
    *out = cache_;
  }

 private:
  std::vector<Point1D> data_;
  mutable std::vector<Point1D> cache_;
};
static_assert(TopKStructure<MemoizedTopK>);
static_assert(!serve::ShareableTopKStructure<MemoizedTopK>);

// A leaf with the EM marker is rejected outright...
struct FakeEmTopK {
  using Element = Point1D;
  using Predicate = Range1D;
  static constexpr bool kExternalMemory = true;
  size_t size() const { return 0; }
  void QueryInto(const Range1D&, size_t, Scratch*, std::vector<Point1D>*,
                 QueryStats*, trace::Tracer*, parallel::Context*) const {}
};
// Each fake models TopKStructure, so the gate's rejection is the
// posture marker's doing, not a signature mismatch.
static_assert(TopKStructure<FakeEmTopK>);
static_assert(!serve::ShareableTopKStructure<FakeEmTopK>);

// ...and the gate recurses through an exported substrate alias.
struct WrapsFakeEm {
  using Element = Point1D;
  using Predicate = Range1D;
  using Prioritized = FakeEmTopK;
  size_t size() const { return 0; }
  void QueryInto(const Range1D&, size_t, Scratch*, std::vector<Point1D>*,
                 QueryStats*, trace::Tracer*, parallel::Context*) const {}
};
static_assert(TopKStructure<WrapsFakeEm>);
static_assert(!serve::ShareableTopKStructure<WrapsFakeEm>);

// The same wrapper WITHOUT the alias would sail through — the gate
// cannot see what a type hides. That is why the substrate-alias exports
// are pinned by the requires static_assert above and why new reductions
// must export theirs.
struct HidesFakeEm {
  using Element = Point1D;
  using Predicate = Range1D;
  size_t size() const { return 0; }
  void QueryInto(const Range1D&, size_t, Scratch*, std::vector<Point1D>*,
                 QueryStats*, trace::Tracer*, parallel::Context*) const {}
 private:
  [[maybe_unused]] FakeEmTopK hidden_;
};
static_assert(serve::ShareableTopKStructure<HidesFakeEm>);

// The audit wrappers forward shareability through their substrate alias:
// auditing a RAM-backed reduction keeps it engine-shareable.
static_assert(serve::ShareableTopKStructure<CoreSetTopK<
    Range1DProblem,
    audit::CheckedPrioritized<PrioritySearchTree, Range1DProblem>>>);

// --- MonitoredQuery boundary semantics ----------------------------------

TEST(MonitoredQuery, BudgetBoundaries) {
  Rng rng(1);
  std::vector<Point1D> data = test::RandomPoints1D(100, &rng);
  PrioritySearchTree pst(data);
  const Range1D all{0.0, 1.0};
  Scratch scratch;

  auto r0 = MonitoredQuery(pst, all, kNegInf, 0, &scratch, nullptr);
  EXPECT_TRUE(r0.hit_budget);
  EXPECT_TRUE(r0.elements.empty());

  // budget == |result|: every element is fetched but the budget is hit,
  // so the caller cannot distinguish completeness — exactly the paper's
  // "4K+1" idiom requires one extra slot.
  auto r100 = MonitoredQuery(pst, all, kNegInf, 100, &scratch, nullptr);
  EXPECT_TRUE(r100.hit_budget);
  EXPECT_EQ(r100.elements.size(), 100u);

  auto r101 = MonitoredQuery(pst, all, kNegInf, 101, &scratch, nullptr);
  EXPECT_FALSE(r101.hit_budget);
  EXPECT_EQ(r101.elements.size(), 100u);
}

// FetchTopKInto at the budget edges, serial vs sharded: budget ==
// matched is hit (empty *out), matched + 1 completes serially, and
// n + 1 is the degenerate fetch a multi-shard context runs as the flat
// kernel. A complete fetch below min_matched keeps its exact count but
// hands back nothing. Both paths must give the brute-force verdict and
// answer.
TEST(FetchTopKInto, BudgetBoundariesSerialVsSharded) {
  Rng rng(4);
  const std::vector<Point1D> data =
      test::RandomPoints1D(parallel::kMinShardedN + 1000, &rng);
  parallel::FlatSource<PrioritySearchTree, Point1D> flat;
  const PrioritySearchTree pst =
      flat.Build(data, DirectFactory<PrioritySearchTree>{});
  ASSERT_EQ(flat.weights().size(), data.size());  // engaged
  const Range1D q{0.2, 0.7};
  const size_t k = 50;
  parallel::Context two(2);
  parallel::Context* const contexts[] = {nullptr, &two};
  Scratch scratch;
  for (const double tau : {kNegInf, 500.0}) {
    std::vector<Point1D> want;
    for (const Point1D& p : data) {
      if (Range1DProblem::Matches(q, p) && p.weight >= tau) want.push_back(p);
    }
    const size_t matched = want.size();
    ASSERT_GT(matched, k);
    SelectTopK(&want, k);
    for (const size_t budget : {matched, matched + 1, data.size() + 1}) {
      for (const size_t min_matched : {size_t{0}, matched + 1}) {
        const bool hit = budget == matched;
        const bool kept = !hit && min_matched <= matched;
        for (parallel::Context* par : contexts) {
          SCOPED_TRACE(::testing::Message()
                       << "tau=" << tau << " budget=" << budget
                       << " min_matched=" << min_matched
                       << " shards=" << (par == nullptr ? 1 : 2));
          std::vector<Point1D> got;
          const FetchVerdict v = FetchTopKInto<Range1DProblem>(
              pst, flat, q, tau, budget, k, &scratch, &got, nullptr,
              nullptr, par, min_matched);
          EXPECT_EQ(v.hit_budget, hit);
          if (hit) {
            EXPECT_GE(v.matched, budget);
          } else {
            EXPECT_EQ(v.matched, matched);
          }
          EXPECT_EQ(test::IdsOf(got),
                    kept ? test::IdsOf(want) : std::vector<uint64_t>{});
        }
      }
    }
  }
}

TEST(MonitoredQuery, ChargesStats) {
  Rng rng(2);
  PrioritySearchTree pst(test::RandomPoints1D(100, &rng));
  QueryStats stats;
  Scratch scratch;
  MonitoredQuery(pst, Range1D{0.0, 1.0}, kNegInf, 50, &scratch, &stats);
  EXPECT_EQ(stats.prioritized_queries, 1u);
  EXPECT_EQ(stats.elements_emitted, 50u);
  EXPECT_GT(stats.nodes_visited, 0u);
}

// --- Determinism --------------------------------------------------------

TEST(Determinism, SameSeedSameAnswersAndStats) {
  Rng rng(3);
  std::vector<Point1D> data = test::RandomPoints1D(20000, &rng);
  ReductionOptions opts;
  opts.seed = 777;
  using S = CoreSetTopK<Range1DProblem, PrioritySearchTree>;
  S a(data, opts), b(data, opts);
  EXPECT_EQ(a.f(), b.f());
  EXPECT_EQ(a.num_chain_levels(), b.num_chain_levels());
  for (int trial = 0; trial < 20; ++trial) {
    double lo = rng.NextDouble(), hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    QueryStats sa, sb;
    auto ra = topk::Query(a, {lo, hi}, 25, &sa);
    auto rb = topk::Query(b, {lo, hi}, 25, &sb);
    EXPECT_EQ(test::IdsOf(ra), test::IdsOf(rb));
    EXPECT_EQ(sa.nodes_visited, sb.nodes_visited);
    EXPECT_EQ(sa.fallbacks, sb.fallbacks);
  }
}

TEST(Determinism, DifferentSeedsStillExact) {
  Rng rng(4);
  std::vector<Point1D> data = test::RandomPoints1D(10000, &rng);
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    ReductionOptions opts;
    opts.seed = seed;
    SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax> s(data, opts);
    auto got = topk::Query(s, {0.1, 0.9}, 40);
    auto want = test::BruteTopK<Range1DProblem>(data, {0.1, 0.9}, 40);
    EXPECT_EQ(test::IdsOf(got), test::IdsOf(want)) << "seed=" << seed;
  }
}

// --- Emission-order independence ----------------------------------------

// A deliberately hostile prioritized structure: correct result set, but
// emitted in ASCENDING weight order (the least helpful order possible).
class AscendingPri {
 public:
  using Element = Point1D;
  using Predicate = Range1D;

  explicit AscendingPri(std::vector<Point1D> data) : data_(std::move(data)) {
    std::sort(data_.begin(), data_.end(), [](const auto& a, const auto& b) {
      return !HeavierThan(a, b);
    });
  }

  size_t size() const { return data_.size(); }

  static double QueryCostBound(size_t n, size_t block_size) {
    return PrioritySearchTree::QueryCostBound(n, block_size);
  }

  template <typename Emit>
  void QueryPrioritized(const Range1D& q, double tau, Emit&& emit,
                        QueryStats* stats = nullptr) const {
    AddNodes(stats, 1);
    for (const Point1D& p : data_) {  // ascending weight
      if (Range1DProblem::Matches(q, p) && MeetsThreshold(p, tau)) {
        if (!emit(p)) return;
      }
    }
  }

 private:
  std::vector<Point1D> data_;  // ascending by weight
};

static_assert(PrioritizedStructure<AscendingPri, Range1DProblem>);

// Every reduction must stay exact over the hostile emitter: nothing may
// assume descending (or any) emission order from a prioritized structure.
TEST(EmissionOrder, ReductionsExactOverAscendingEmitter) {
  Rng rng(5);
  std::vector<Point1D> data = test::RandomPoints1D(8000, &rng);
  CoreSetTopK<Range1DProblem, AscendingPri> thm1(data);
  SampledTopK<Range1DProblem, AscendingPri, RangeMax> thm2(data);
  BinarySearchTopK<Range1DProblem, AscendingPri> baseline(data);
  CountingTopK<Range1DProblem, AscendingPri, range1d::CountTree>
      counting(data);
  for (int trial = 0; trial < 15; ++trial) {
    double lo = rng.NextDouble(), hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    for (size_t k : {size_t{1}, size_t{20}, size_t{500}, size_t{8000}}) {
      auto want = test::BruteTopK<Range1DProblem>(data, {lo, hi}, k);
      ASSERT_EQ(test::IdsOf(topk::Query(thm1, {lo, hi}, k)), test::IdsOf(want));
      ASSERT_EQ(test::IdsOf(topk::Query(thm2, {lo, hi}, k)), test::IdsOf(want));
      ASSERT_EQ(test::IdsOf(topk::Query(baseline, {lo, hi}, k)),
                test::IdsOf(want));
      ASSERT_EQ(test::IdsOf(topk::Query(counting, {lo, hi}, k)),
                test::IdsOf(want));
    }
  }
}

// --- Output ordering invariant -------------------------------------------

TEST(OutputOrder, AlwaysHeaviestFirst) {
  Rng rng(6);
  std::vector<Point1D> data = test::ClumpedPoints1D(5000, &rng);
  CoreSetTopK<Range1DProblem, PrioritySearchTree> thm1(data);
  SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax> thm2(data);
  BinarySearchTopK<Range1DProblem, PrioritySearchTree> base(data);
  auto check_sorted = [](const std::vector<Point1D>& result) {
    for (size_t i = 1; i < result.size(); ++i) {
      ASSERT_TRUE(HeavierThan(result[i - 1], result[i]));
    }
  };
  for (int trial = 0; trial < 10; ++trial) {
    const double lo = rng.NextDouble() * 5000, hi = lo + 2000;
    check_sorted(topk::Query(thm1, {lo, hi}, 100));
    check_sorted(topk::Query(thm2, {lo, hi}, 100));
    check_sorted(topk::Query(base, {lo, hi}, 100));
  }
}

// Thm 1 with every exit reached. At n = 2^15 and B = 4, f = 720: the
// small-k chain has >= 2 levels (a top-f level walk reads its pivot with
// nth_element) and the large-k ladder has rungs. k = 1, 16 and f take the
// chain's top-f prefix; f + 1 and 3000 a ladder rung; n / 2 the full
// scan. A constant_scale ablation forces the binary-search fallback out
// of both failure exits; each query is classed by its own build's f, so
// the chain's (k <= f) and the ladder's (f < k < n / 2) fallbacks are
// pinned separately. Serial and 4-shard answers must be strictly
// heaviest first and equal brute force: the chain's pools are unordered,
// so the exit sort is the only thing standing behind this order.
TEST(OutputOrder, Thm1EveryExitHeaviestFirst) {
  using S = CoreSetTopK<Range1DProblem, PrioritySearchTree>;
  Rng rng(7);
  const size_t n = size_t{1} << 15;
  const std::vector<Point1D> data = test::RandomPoints1D(n, &rng);
  const S paper(data, {.block_size = 4});
  ASSERT_EQ(paper.f(), 720u);
  ASSERT_GE(paper.num_chain_levels(), 2u);
  ASSERT_GE(paper.num_large_k_core_sets(), 3u);
  const S ablated(data, {.block_size = 4, .constant_scale = 0.01});
  const size_t f = paper.f();
  parallel::Context four(4);
  parallel::Context* const contexts[] = {nullptr, &four};
  // Wide ranges reach every pivot exit; the ~330- and ~16-point ones
  // reach the steps whose deeper pool is short of the pivot rank.
  const Range1D ranges[] = {{0.0, 1.0},   {0.1, 0.9},     {0.3, 0.5},
                            {0.4, 0.41}, {0.42, 0.4205}};
  Scratch scratch;
  for (const S* s : {&paper, &ablated}) {
    QueryStats chain, ladder, scan;
    for (const Range1D& q : ranges) {
      for (const size_t k : {size_t{1}, size_t{16}, f, f + 1, size_t{3000},
                             n / 2}) {
        const std::vector<Point1D> want =
            test::BruteTopK<Range1DProblem>(data, q, k);
        QueryStats* const stats =
            k <= s->f() ? &chain : (k < n / 2 ? &ladder : &scan);
        for (parallel::Context* par : contexts) {
          SCOPED_TRACE(::testing::Message()
                       << (s == &paper ? "paper" : "ablated") << " q=["
                       << q.lo << "," << q.hi << "] k=" << k
                       << " shards=" << (par == nullptr ? 1 : 4));
          std::vector<Point1D> got;
          s->QueryInto(q, k, &scratch, &got, stats, nullptr, par);
          for (size_t i = 1; i < got.size(); ++i) {
            ASSERT_TRUE(HeavierThan(got[i - 1], got[i])) << "rank " << i;
          }
          EXPECT_EQ(test::IdsOf(got), test::IdsOf(want));
        }
      }
    }
    EXPECT_GT(scan.full_scans, 0u);
    // At paper constants a pivot read off an unselected pool would
    // show up here as a fallback.
    if (s == &paper) {
      EXPECT_EQ(chain.fallbacks + ladder.fallbacks + scan.fallbacks, 0u);
    } else {
      EXPECT_GT(chain.fallbacks, 0u) << "chain exit, f = " << s->f();
      EXPECT_GT(ladder.fallbacks, 0u) << "ladder exit, f = " << s->f();
    }
  }
}

// --- Stats accumulation ---------------------------------------------------

TEST(QueryStatsTest, AccumulateAndReset) {
  QueryStats a, b;
  a.nodes_visited = 5;
  a.rounds = 2;
  b.nodes_visited = 7;
  b.fallbacks = 1;
  a += b;
  EXPECT_EQ(a.nodes_visited, 12u);
  EXPECT_EQ(a.rounds, 2u);
  EXPECT_EQ(a.fallbacks, 1u);
  a.Reset();
  EXPECT_EQ(a.nodes_visited, 0u);
  EXPECT_EQ(a.fallbacks, 0u);
}

}  // namespace
}  // namespace topk
