// The library's one worker pool: a parallel region whose worker 0 is
// the calling thread. It runs the serving engine's request workers,
// the federation coordinator's per-shard fan-out, and the intra-query
// shards of ONE query's dominant loop.
//
// Shape: a WorkerPool of W "shards" owns W-1 parked helper threads; the
// CALLING thread is always shard 0. RunShards(job) runs job(s) for
// every shard s in [0, W) — job(0) inline on the caller, the rest on
// the helpers — and returns only after all W calls have finished, so
// the job (a FunctionRef into the caller's stack frame) needs no
// lifetime management and the caller can read the helpers' results
// without extra synchronization: the barrier orders them.
//
// Helpers park on a condition variable between regions (never
// spin/sleep) and are spawned once, in the constructor — a query never
// pays thread creation. Single-owner like Scratch: RunShards may not be
// called concurrently with itself (checked); one WorkerPool belongs to
// one serving worker at a time.
//
// The job must only touch shard-private state (its slot of the caller's
// shard arrays) plus read-only shared state; the generation protocol's
// mutex is the only synchronization provided.

#ifndef TOPK_PARALLEL_WORKER_POOL_H_
#define TOPK_PARALLEL_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/function_ref.h"

namespace topk::parallel {

class WorkerPool {
 public:
  // `shards` total workers; shard 0 is the calling thread, so
  // `shards - 1` helper threads are spawned. shards == 1 is valid and
  // means RunShards degenerates to a plain inline call.
  explicit WorkerPool(size_t shards) : shards_(shards) {
    TOPK_CHECK(shards_ >= 1);
    helpers_.reserve(shards_ - 1);
    for (size_t i = 1; i < shards_; ++i) {
      helpers_.emplace_back([this, i] { HelperLoop(i); });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : helpers_) t.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t shards() const { return shards_; }

  // Runs job(s) once per shard — job(0) on this thread — and blocks
  // until every call has returned. The returning barrier makes all
  // helper writes visible to the caller.
  void RunShards(FunctionRef<void(size_t)> job) {
    if (helpers_.empty()) {
      job(0);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      TOPK_CHECK_EQ(running_, size_t{0});  // no concurrent RunShards
      job_ = &job;
      ++generation_;
      running_ = helpers_.size();
    }
    work_cv_.notify_all();
    job(0);
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return running_ == 0; });
    job_ = nullptr;
  }

 private:
  void HelperLoop(size_t shard) {
    uint64_t seen_generation = 0;
    for (;;) {
      const FunctionRef<void(size_t)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this, seen_generation] {
          return shutdown_ || generation_ != seen_generation;
        });
        if (shutdown_) return;
        seen_generation = generation_;
        job = job_;
      }
      (*job)(shard);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--running_ == 0) done_cv_.notify_all();
      }
    }
  }

  size_t shards_;
  std::vector<std::thread> helpers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const FunctionRef<void(size_t)>* job_ = nullptr;  // valid while running
  uint64_t generation_ = 0;
  size_t running_ = 0;
  bool shutdown_ = false;
};

}  // namespace topk::parallel

#endif  // TOPK_PARALLEL_WORKER_POOL_H_
