// Fractional cascading: positions must match independent binary
// searches at every node of every root-to-leaf walk; the cascaded 2D
// stabbing max must agree with the plain one and with brute force.

#include "common/cascade.h"

#include <array>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/sampled_topk.h"
#include "enclosure/enclosure_max_fc.h"
#include "enclosure/enclosure_structures.h"
#include "enclosure/rect.h"
#include "test_util.h"

namespace topk {
namespace {

using enclosure::EnclosureMax;
using enclosure::EnclosureMaxCascading;
using enclosure::EnclosureProblem;
using enclosure::Point2;
using enclosure::Rect;

// Builds a random binary tree with random catalogs and checks the
// cascading cursor against std::lower_bound at every node.
TEST(FractionalCascading, MatchesDirectSearchOnRandomTrees) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t num_nodes = 1 + rng.Below(60);
    std::vector<std::vector<double>> catalogs(num_nodes);
    std::vector<std::array<int32_t, 2>> children(
        num_nodes, std::array<int32_t, 2>{-1, -1});
    // Nodes 1..num_nodes-1 attach to a random earlier node with a free
    // slot; construction keeps it a forest rooted at 0.
    for (size_t v = 1; v < num_nodes; ++v) {
      while (true) {
        const size_t parent = rng.Below(v);
        const int side = static_cast<int>(rng.Below(2));
        if (children[parent][side] < 0) {
          children[parent][side] = static_cast<int32_t>(v);
          break;
        }
        if (children[parent][0] >= 0 && children[parent][1] >= 0) continue;
      }
    }
    for (auto& catalog : catalogs) {
      const size_t m = rng.Below(30);
      for (size_t i = 0; i < m; ++i) {
        catalog.push_back(static_cast<double>(rng.Below(50)));
      }
      std::sort(catalog.begin(), catalog.end());
    }
    FractionalCascading fc(catalogs, children, 0);

    for (int q = 0; q < 40; ++q) {
      const double y = static_cast<double>(rng.Below(52)) - 1.0;
      // Random walk from the root.
      FractionalCascading::Cursor cur = fc.Start(y);
      int32_t v = 0;
      while (v >= 0) {
        const size_t expected = static_cast<size_t>(
            std::lower_bound(catalogs[v].begin(), catalogs[v].end(), y) -
            catalogs[v].begin());
        ASSERT_EQ(fc.NativeLowerBound(cur), expected)
            << "node " << v << " y=" << y;
        const int side = static_cast<int>(rng.Below(2));
        const int32_t next = children[v][side];
        if (next < 0) break;
        cur = fc.Descend(cur, side, y);
        v = next;
      }
    }
  }
}

TEST(FractionalCascading, AugmentedSizeWithinTwiceNative) {
  Rng rng(2);
  const size_t num_nodes = 127;  // complete tree
  std::vector<std::vector<double>> catalogs(num_nodes);
  std::vector<std::array<int32_t, 2>> children(
      num_nodes, std::array<int32_t, 2>{-1, -1});
  for (size_t v = 0; 2 * v + 2 < num_nodes; ++v) {
    children[v] = {static_cast<int32_t>(2 * v + 1),
                   static_cast<int32_t>(2 * v + 2)};
  }
  size_t native_total = 0;
  for (auto& catalog : catalogs) {
    const size_t m = 5 + rng.Below(20);
    native_total += m;
    for (size_t i = 0; i < m; ++i) catalog.push_back(rng.NextDouble());
    std::sort(catalog.begin(), catalog.end());
  }
  FractionalCascading fc(catalogs, children, 0);
  EXPECT_LE(fc.augmented_size(), 2 * native_total + num_nodes);
}

std::vector<Rect> RandomRects(size_t n, Rng* rng, double span = 0.2) {
  std::vector<Rect> out(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng->NextDouble(), y = rng->NextDouble();
    out[i] = Rect{x, x + rng->NextDouble() * span,
                  y, y + rng->NextDouble() * span,
                  rng->NextDouble() * 1000.0, i + 1};
  }
  return out;
}

TEST(EnclosureMaxCascading, EmptyAndSingle) {
  EnclosureMaxCascading empty({});
  EXPECT_FALSE(empty.QueryMax({0.5, 0.5}).has_value());
  EnclosureMaxCascading one({{0, 1, 0, 1, 5.0, 1}});
  EXPECT_TRUE(one.QueryMax({0.5, 0.5}).has_value());
  EXPECT_TRUE(one.QueryMax({1, 1}).has_value());
  EXPECT_FALSE(one.QueryMax({1.1, 0.5}).has_value());
}

TEST(EnclosureMaxCascading, MatchesPlainAndBrute) {
  Rng rng(3);
  for (size_t n : {size_t{1}, size_t{50}, size_t{500}, size_t{3000}}) {
    std::vector<Rect> data = RandomRects(n, &rng);
    EnclosureMax plain(data);
    EnclosureMaxCascading cascaded(data);
    for (int trial = 0; trial < 60; ++trial) {
      const Point2 q{rng.NextDouble() * 1.2, rng.NextDouble() * 1.2};
      auto want = test::BruteMax<EnclosureProblem>(data, q);
      auto got_plain = plain.QueryMax(q);
      auto got_fc = cascaded.QueryMax(q);
      ASSERT_EQ(got_fc.has_value(), want.has_value()) << "n=" << n;
      if (want.has_value()) {
        ASSERT_EQ(got_fc->id, want->id) << "n=" << n;
        ASSERT_EQ(got_plain->id, want->id) << "n=" << n;
      }
    }
    // Exact corners (catalog boundary cases for the cascaded search).
    for (size_t i = 0; i < std::min<size_t>(n, 25); ++i) {
      for (const Point2& q : {Point2{data[i].x1, data[i].y1},
                              Point2{data[i].x2, data[i].y2}}) {
        auto want = test::BruteMax<EnclosureProblem>(data, q);
        auto got = cascaded.QueryMax(q);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (want.has_value()) {
          ASSERT_EQ(got->id, want->id);
        }
      }
    }
  }
}

// The cascaded structure is a drop-in max structure for Theorem 2.
TEST(EnclosureMaxCascading, WorksUnderSampledTopK) {
  Rng rng(4);
  std::vector<Rect> data = RandomRects(2000, &rng, 0.4);
  SampledTopK<EnclosureProblem, enclosure::EnclosurePrioritized,
              EnclosureMaxCascading>
      thm2(data);
  for (int trial = 0; trial < 8; ++trial) {
    const Point2 q{rng.NextDouble(), rng.NextDouble()};
    for (size_t k : {size_t{1}, size_t{20}, size_t{300}}) {
      auto want = test::BruteTopK<EnclosureProblem>(data, q, k);
      ASSERT_EQ(test::IdsOf(topk::Query(thm2, q, k)), test::IdsOf(want));
    }
  }
}

}  // namespace
}  // namespace topk
