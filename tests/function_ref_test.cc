// FunctionRef (the WorkerPool dispatch type): lambdas with captures,
// plain function pointers, and stateful function objects, standalone
// and through WorkerPool::RunShards.

#include <atomic>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/function_ref.h"
#include "parallel/worker_pool.h"

namespace topk {
namespace {

int TimesTwo(int x) { return 2 * x; }

TEST(FunctionRef, FunctionPointerCallee) {
  FunctionRef<int(int)> f = &TimesTwo;
  EXPECT_EQ(f(21), 42);
  FunctionRef<int(int)> g = TimesTwo;  // decays identically
  EXPECT_EQ(g(5), 10);
}

TEST(FunctionRef, CapturingLambdaCallee) {
  int base = 100;
  auto lambda = [&base](int x) { return base + x; };
  FunctionRef<int(int)> f = lambda;
  EXPECT_EQ(f(1), 101);
  base = 200;  // referenced, not copied: sees the update
  EXPECT_EQ(f(1), 201);
}

TEST(FunctionRef, MutatingCalleeStatePersists) {
  size_t calls = 0;
  auto lambda = [&calls]() { ++calls; };
  FunctionRef<void()> f = lambda;
  f();
  f();
  EXPECT_EQ(calls, 2u);
}

TEST(FunctionRef, VoidReturnDiscardsCalleeResult) {
  int hits = 0;
  auto lambda = [&hits](int x) {
    hits += x;
    return hits;  // non-void callee behind a void signature
  };
  FunctionRef<void(int)> f = lambda;
  f(3);
  EXPECT_EQ(hits, 3);
}

std::atomic<size_t>* g_pointer_target = nullptr;
void BumpTarget(size_t) {
  g_pointer_target->fetch_add(1, std::memory_order_relaxed);
}

TEST(WorkerPool, RunShardsWithCapturingLambda) {
  parallel::WorkerPool pool(4);
  std::vector<size_t> seen(pool.shards(), 0);
  std::atomic<size_t> total{0};
  pool.RunShards([&](size_t worker) {
    seen[worker] = worker + 1;
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 4u);
  for (size_t t = 0; t < seen.size(); ++t) EXPECT_EQ(seen[t], t + 1);
}

TEST(WorkerPool, RunShardsWithFunctionPointer) {
  parallel::WorkerPool pool(3);
  std::atomic<size_t> count{0};
  g_pointer_target = &count;
  pool.RunShards(&BumpTarget);
  g_pointer_target = nullptr;
  EXPECT_EQ(count.load(), 3u);
}

TEST(WorkerPool, BackToBackRegionsReuseHelpers) {
  parallel::WorkerPool pool(2);
  std::atomic<size_t> count{0};
  for (int round = 0; round < 50; ++round) {
    pool.RunShards(
        [&](size_t) { count.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(count.load(), 100u);
}

}  // namespace
}  // namespace topk
