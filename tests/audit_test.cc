// The audit layer (src/audit/): the checked wrappers must (a) be
// transparent over correct structures — same answers, drop-in under
// every reduction — and (b) abort on each specific contract violation
// when wrapping a deliberately broken structure. Plus the per-structure
// AuditInvariants() hooks on healthy instances.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit/checked_max.h"
#include "audit/checked_prioritized.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/core_set_topk.h"
#include "core/problem.h"
#include "core/sampled_topk.h"
#include "em/block_device.h"
#include "em/buffer_pool.h"
#include "range1d/dyn_pst.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;
using range1d::RangeMax;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

using CheckedPst =
    audit::CheckedPrioritized<PrioritySearchTree, Range1DProblem>;
using CheckedRangeMax = audit::CheckedMax<RangeMax, Range1DProblem>;

// The wrappers are structures themselves: same concepts, same
// shareability as what they wrap.
static_assert(PrioritizedStructure<CheckedPst, Range1DProblem>);
static_assert(MaxStructure<CheckedRangeMax, Range1DProblem>);

// --- Transparency over correct structures -------------------------------

TEST(CheckedPrioritized, TransparentOverPst) {
  Rng rng(1);
  std::vector<Point1D> data = test::RandomPoints1D(2000, &rng);
  CheckedPst checked(data);
  checked.EnableCostCheck(/*per_query=*/32.0, /*per_emit=*/16.0);
  for (int trial = 0; trial < 20; ++trial) {
    double lo = rng.NextDouble(), hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    const double tau = rng.NextDouble() * 1000.0;
    QueryStats stats;
    std::vector<Point1D> got;
    checked.QueryPrioritized(
        {lo, hi}, tau,
        [&got](const Point1D& p) {
          got.push_back(p);
          return true;
        },
        &stats);
    auto want = test::BrutePrioritized<Range1DProblem>(data, {lo, hi}, tau);
    EXPECT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want));
    EXPECT_GT(stats.nodes_visited, 0u);
  }
}

TEST(CheckedPrioritized, EarlyStopIsNotFlaggedIncomplete) {
  Rng rng(2);
  CheckedPst checked(test::RandomPoints1D(500, &rng));
  size_t emitted = 0;
  checked.QueryPrioritized(
      {0.0, 1.0}, kNegInf,
      [&emitted](const Point1D&) { return ++emitted < 5; }, nullptr);
  EXPECT_EQ(emitted, 5u);
}

TEST(CheckedMax, TransparentOverRangeMax) {
  Rng rng(3);
  std::vector<Point1D> data = test::RandomPoints1D(1500, &rng);
  CheckedRangeMax checked(data);
  for (int trial = 0; trial < 30; ++trial) {
    double lo = rng.NextDouble(), hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    auto got = checked.QueryMax({lo, hi});
    auto want = test::BruteMax<Range1DProblem>(data, {lo, hi});
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got.has_value()) {
      EXPECT_EQ(got->id, want->id);
    }
  }
}

// Reduction integration: both theorems stay exact over fully audited
// substrates (this is exactly what -DTOPK_AUDIT=ON turns on in the big
// sweeps; here it runs in every build).
TEST(AuditWrappers, ReductionsRunExactOverCheckedSubstrates) {
  Rng rng(4);
  std::vector<Point1D> data = test::RandomPoints1D(4000, &rng);
  CoreSetTopK<Range1DProblem, CheckedPst> thm1(data);
  SampledTopK<Range1DProblem, CheckedPst, CheckedRangeMax> thm2(data);
  thm1.AuditInvariants();
  thm2.AuditInvariants();
  for (int trial = 0; trial < 8; ++trial) {
    double lo = rng.NextDouble(), hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    for (size_t k : {size_t{1}, size_t{30}, size_t{800}, size_t{4000}}) {
      auto want = test::BruteTopK<Range1DProblem>(data, {lo, hi}, k);
      ASSERT_EQ(test::IdsOf(topk::Query(thm1, {lo, hi}, k)), test::IdsOf(want));
      ASSERT_EQ(test::IdsOf(topk::Query(thm2, {lo, hi}, k)), test::IdsOf(want));
    }
  }
}

TEST(CheckedPrioritized, DynamicMirrorFollowsInsertErase) {
  using CheckedDynPst =
      audit::CheckedPrioritized<range1d::DynamicPst, Range1DProblem>;
  Rng rng(5);
  std::vector<Point1D> data = test::RandomPoints1D(300, &rng);
  CheckedDynPst checked(data);
  Point1D extra{0.5, 5000.0, 9999};
  checked.Insert(extra);
  data.push_back(extra);
  checked.Erase(data[0]);
  data.erase(data.begin());
  std::vector<Point1D> got;
  checked.QueryPrioritized(
      {0.0, 1.0}, kNegInf,
      [&got](const Point1D& p) {
        got.push_back(p);
        return true;
      },
      nullptr);
  auto want = test::BrutePrioritized<Range1DProblem>(data, {0.0, 1.0},
                                                     kNegInf);
  EXPECT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want));
}

// --- Violation detection (death tests) ----------------------------------

// A configurable saboteur: correct PST-like behaviour except for one
// injected contract violation at a time.
enum class Sabotage {
  kNone,
  kDuplicate,      // emits the first element twice
  kBelowTau,       // emits one element below the threshold
  kOutsideQuery,   // emits one non-matching element
  kIgnoresStop,    // keeps emitting after the sink returns false
  kDropsElements,  // silently omits one matching element
  kFullScanCost,   // charges n node visits regardless of output size
};

class SabotagedPri {
 public:
  using Element = Point1D;
  using Predicate = Range1D;

  explicit SabotagedPri(std::vector<Point1D> data)
      : data_(std::move(data)) {}

  size_t size() const { return data_.size(); }

  static double QueryCostBound(size_t n, size_t block_size) {
    return PrioritySearchTree::QueryCostBound(n, block_size);
  }

  static Sabotage mode;  // set per death test, before construction

  template <typename Emit>
  void QueryPrioritized(const Range1D& q, double tau, Emit&& emit,
                        QueryStats* stats = nullptr) const {
    AddNodes(stats, 1);
    if (mode == Sabotage::kFullScanCost) AddNodes(stats, data_.size());
    bool stopped = false;
    bool skipped_one = false;
    bool duplicated = false;
    for (const Point1D& p : data_) {
      const bool matches =
          Range1DProblem::Matches(q, p) && MeetsThreshold(p, tau);
      if (!matches) {
        if (mode == Sabotage::kOutsideQuery) {
          emit(p);  // fails the Matches-or-threshold check
          return;
        }
        continue;
      }
      if (mode == Sabotage::kDropsElements && !skipped_one) {
        skipped_one = true;
        continue;
      }
      if (stopped && mode != Sabotage::kIgnoresStop) return;
      const bool keep_going = emit(p);
      if (!keep_going) {
        if (mode != Sabotage::kIgnoresStop) return;
        stopped = true;
      }
      if (mode == Sabotage::kDuplicate && !duplicated) {
        duplicated = true;
        if (!emit(p)) return;
      }
      if (mode == Sabotage::kBelowTau &&
          tau != -std::numeric_limits<double>::infinity()) {
        Point1D below = p;
        below.weight = tau - 1.0;
        below.id = p.id + 1'000'000;
        emit(below);
        return;
      }
    }
  }

 private:
  std::vector<Point1D> data_;
};

Sabotage SabotagedPri::mode = Sabotage::kNone;

static_assert(PrioritizedStructure<SabotagedPri, Range1DProblem>);

using CheckedSabotaged =
    audit::CheckedPrioritized<SabotagedPri, Range1DProblem>;

class CheckedPrioritizedDeath : public ::testing::Test {
 protected:
  std::vector<Point1D> MakeData() {
    Rng rng(77);
    return test::RandomPoints1D(200, &rng);
  }

  // Runs one full (never stopped) and one stopped query.
  void RunQueries(const CheckedSabotaged& checked) {
    std::vector<Point1D> sink;
    checked.QueryPrioritized(
        {0.1, 0.9}, 100.0,
        [&sink](const Point1D& p) {
          sink.push_back(p);
          return true;
        },
        nullptr);
    size_t n = 0;
    checked.QueryPrioritized(
        {0.0, 1.0}, kNegInf, [&n](const Point1D&) { return ++n < 3; },
        nullptr);
  }
};

TEST_F(CheckedPrioritizedDeath, SabotageFreePasses) {
  SabotagedPri::mode = Sabotage::kNone;
  CheckedSabotaged checked(MakeData());
  RunQueries(checked);  // must not abort
}

TEST_F(CheckedPrioritizedDeath, CatchesDuplicateEmission) {
  SabotagedPri::mode = Sabotage::kDuplicate;
  CheckedSabotaged checked(MakeData());
  EXPECT_DEATH(RunQueries(checked), "TOPK_CHECK failed");
}

TEST_F(CheckedPrioritizedDeath, CatchesBelowThresholdEmission) {
  SabotagedPri::mode = Sabotage::kBelowTau;
  CheckedSabotaged checked(MakeData());
  EXPECT_DEATH(RunQueries(checked), "TOPK_CHECK failed");
}

TEST_F(CheckedPrioritizedDeath, CatchesNonMatchingEmission) {
  SabotagedPri::mode = Sabotage::kOutsideQuery;
  CheckedSabotaged checked(MakeData());
  EXPECT_DEATH(RunQueries(checked), "TOPK_CHECK failed");
}

TEST_F(CheckedPrioritizedDeath, CatchesEmissionAfterStop) {
  SabotagedPri::mode = Sabotage::kIgnoresStop;
  CheckedSabotaged checked(MakeData());
  EXPECT_DEATH(RunQueries(checked), "TOPK_CHECK failed");
}

TEST_F(CheckedPrioritizedDeath, CatchesDroppedElements) {
  SabotagedPri::mode = Sabotage::kDropsElements;
  CheckedSabotaged checked(MakeData());
  EXPECT_DEATH(RunQueries(checked), "TOPK_CHECK failed");
}

TEST_F(CheckedPrioritizedDeath, CatchesNonOutputSensitiveAccounting) {
  SabotagedPri::mode = Sabotage::kFullScanCost;
  CheckedSabotaged checked(MakeData());
  checked.EnableCostCheck(/*per_query=*/8.0, /*per_emit=*/4.0);
  EXPECT_DEATH(
      {
        QueryStats stats;
        size_t n = 0;
        checked.QueryPrioritized(
            {0.4, 0.6}, kNegInf, [&n](const Point1D&) { return ++n < 3; },
            &stats);
      },
      "TOPK_CHECK failed");
}

// A max structure that returns SOME matching element, not the heaviest —
// the classic subtle bug Theorem 2 would quietly absorb into extra
// rounds (queries stay exact, the cost bound silently breaks).
class FirstMatchMax {
 public:
  using Element = Point1D;
  using Predicate = Range1D;

  explicit FirstMatchMax(std::vector<Point1D> data)
      : data_(std::move(data)) {}

  size_t size() const { return data_.size(); }

  static double QueryCostBound(size_t n, size_t block_size) {
    return RangeMax::QueryCostBound(n, block_size);
  }

  std::optional<Point1D> QueryMax(const Range1D& q,
                                  QueryStats* stats = nullptr) const {
    AddNodes(stats, 1);
    for (const Point1D& p : data_) {
      if (Range1DProblem::Matches(q, p)) return p;
    }
    return std::nullopt;
  }

 private:
  std::vector<Point1D> data_;
};

static_assert(MaxStructure<FirstMatchMax, Range1DProblem>);

TEST(CheckedMaxDeath, CatchesNonMaximalAnswer) {
  Rng rng(88);
  audit::CheckedMax<FirstMatchMax, Range1DProblem> checked(
      test::RandomPoints1D(200, &rng));
  EXPECT_DEATH(checked.QueryMax({0.0, 1.0}), "TOPK_CHECK failed");
}

// --- AuditInvariants hooks on healthy structures ------------------------

TEST(AuditInvariants, PstHeapAndSplitOrder) {
  Rng rng(9);
  PrioritySearchTree pst(test::ClumpedPoints1D(5000, &rng));
  pst.AuditInvariants();
  PrioritySearchTree empty({});
  empty.AuditInvariants();
}

TEST(AuditInvariants, BufferPoolPinLedger) {
  em::BlockDevice dev(128);
  for (int i = 0; i < 8; ++i) dev.Allocate();
  em::BufferPool pool(&dev, 4);
  pool.AuditInvariants();
  uint8_t* a = pool.Pin(0);
  (void)a;
  pool.AuditInvariants();
  pool.Pin(1, /*mark_dirty=*/true);
  pool.AuditInvariants();
  pool.Unpin(0);
  pool.AuditInvariants();
  // Force evictions through the remaining pages.
  for (uint64_t page = 2; page < 8; ++page) {
    pool.Pin(page);
    pool.Unpin(page);
    pool.AuditInvariants();
  }
  pool.Unpin(1);
  pool.AuditInvariants();
  pool.FlushAll();
  pool.AuditInvariants();
}

}  // namespace
}  // namespace topk
