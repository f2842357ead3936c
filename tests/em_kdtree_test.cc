// External-memory kd-tree: correctness vs brute force for dominance and
// circular predicates, I/O accounting, and the reductions over it.

#include "em/em_kdtree.h"

#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "circle/circular.h"
#include "common/random.h"
#include "core/sampled_topk.h"
#include "dominance/point3.h"
#include "em/block_device.h"
#include "em/buffer_pool.h"
#include "test_util.h"

namespace topk {
namespace {

using circle::CircularGeo;
using circle::CircularProblem;
using circle::Disk;
using circle::WPoint2;
using dominance::DominanceGeo;
using dominance::DominanceProblem;
using dominance::Point3;
using em::BlockDevice;
using em::BufferPool;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

using EmDominance = em::EmKdTree<DominanceProblem, DominanceGeo>;
using EmCircular = em::EmKdTree<CircularProblem, CircularGeo>;

struct Fx {
  std::unique_ptr<BlockDevice> dev;
  std::unique_ptr<BufferPool> pool;
  explicit Fx(size_t page = 4096, size_t frames = 32)
      : dev(std::make_unique<BlockDevice>(page)),
        pool(std::make_unique<BufferPool>(dev.get(), frames)) {}
};

std::vector<Point3> RandomPoints3(size_t n, Rng* rng) {
  std::vector<Point3> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = Point3{rng->NextDouble(), rng->NextDouble(), rng->NextDouble(),
                    rng->NextDouble() * 1000.0, i + 1};
  }
  return out;
}

TEST(EmKdTree, EmptyInput) {
  Fx fx;
  EmDominance t(fx.pool.get(), {});
  EXPECT_FALSE(t.QueryMax({1, 1, 1, 0, 0}).has_value());
  size_t count = 0;
  t.QueryPrioritized({1, 1, 1, 0, 0}, kNegInf, [&count](const Point3&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 0u);
}

struct Param {
  size_t n;
  uint64_t seed;
  size_t page;
};

class EmKdSweep : public ::testing::TestWithParam<Param> {};

TEST_P(EmKdSweep, DominanceMatchesBrute) {
  const Param p = GetParam();
  Fx fx(p.page);
  Rng rng(p.seed);
  std::vector<Point3> data = RandomPoints3(p.n, &rng);
  EmDominance t(fx.pool.get(), data);
  for (int trial = 0; trial < 30; ++trial) {
    const Point3 q{rng.NextDouble() * 1.2, rng.NextDouble() * 1.2,
                   rng.NextDouble() * 1.2, 0, 0};
    const double tau_pool[] = {kNegInf, 200.0, 700.0, 980.0};
    const double tau = tau_pool[trial % 4];
    std::vector<Point3> got;
    t.QueryPrioritized(q, tau, [&got](const Point3& e) {
      got.push_back(e);
      return true;
    });
    auto want = test::BrutePrioritized<DominanceProblem>(data, q, tau);
    ASSERT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want))
        << "n=" << p.n << " page=" << p.page;

    auto gmax = t.QueryMax(q);
    auto wmax = test::BruteMax<DominanceProblem>(data, q);
    ASSERT_EQ(gmax.has_value(), wmax.has_value());
    if (gmax.has_value()) {
      ASSERT_EQ(gmax->id, wmax->id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EmKdSweep,
    ::testing::Values(Param{1, 1, 4096}, Param{2, 2, 4096},
                      Param{100, 3, 4096}, Param{3000, 4, 4096},
                      // Tiny pages: one node per page (worst layout).
                      Param{500, 5, 128},
                      // Page holding a few nodes.
                      Param{2000, 6, 512}));

TEST(EmKdTree, CircularMatchesBrute) {
  Fx fx;
  Rng rng(7);
  std::vector<WPoint2> data(2000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = {rng.NextDouble(), rng.NextDouble(),
               rng.NextDouble() * 1000.0, i + 1};
  }
  EmCircular t(fx.pool.get(), data);
  for (int trial = 0; trial < 40; ++trial) {
    const Disk q{rng.NextDouble(), rng.NextDouble(),
                 rng.NextDouble() * 0.4};
    auto gmax = t.QueryMax(q);
    auto wmax = test::BruteMax<CircularProblem>(data, q);
    ASSERT_EQ(gmax.has_value(), wmax.has_value());
    if (gmax.has_value()) {
      ASSERT_EQ(gmax->id, wmax->id);
    }
  }
}

TEST(EmKdTree, MaxQueryIsIoEfficient) {
  Fx fx(4096, 16);
  Rng rng(8);
  std::vector<Point3> data = RandomPoints3(1 << 15, &rng);
  EmDominance t(fx.pool.get(), data);
  fx.pool->FlushAll();
  fx.dev->ResetCounters();
  auto got = t.QueryMax({0.9, 0.9, 0.9, 0, 0});
  ASSERT_TRUE(got.has_value());
  // ~900 pages total; branch-and-bound should touch a small fraction.
  EXPECT_LT(fx.dev->counters().reads, 120u);
}

TEST(EmKdTree, SampledTopKOverEmKdTree) {
  Fx fx(4096, 64);
  Rng rng(9);
  std::vector<Point3> data = RandomPoints3(8000, &rng);
  auto factory = [&fx](std::vector<Point3> v) {
    return EmDominance(fx.pool.get(), std::move(v));
  };
  SampledTopK<DominanceProblem, EmDominance, EmDominance,
              decltype(factory), decltype(factory)>
      thm2(data, {}, factory, factory);
  for (int trial = 0; trial < 6; ++trial) {
    const Point3 q{0.4 + rng.NextDouble() * 0.8,
                   0.4 + rng.NextDouble() * 0.8,
                   0.4 + rng.NextDouble() * 0.8, 0, 0};
    for (size_t k : {size_t{1}, size_t{25}, size_t{400}}) {
      auto want = test::BruteTopK<DominanceProblem>(data, q, k);
      ASSERT_EQ(test::IdsOf(topk::Query(thm2, q, k)), test::IdsOf(want));
    }
  }
  EXPECT_GT(fx.dev->counters().total(), 0u);
}

}  // namespace
}  // namespace topk
