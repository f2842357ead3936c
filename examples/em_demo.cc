// External-memory walkthrough: build the Section 5.5-style structures
// on a simulated disk, run both reductions, and read the exact page
// I/O counters — the quantity the paper's theorems are stated in.

#include <cstdio>
#include <vector>

#include "common/random.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "em/block_device.h"
#include "em/buffer_pool.h"
#include "em/em_range1d.h"
#include "em/external_sort.h"
#include "range1d/point1d.h"

int main() {
  using topk::em::BlockDevice;
  using topk::em::BufferPool;
  using topk::em::EmBPlusTree;
  using topk::em::EmRange1dPrioritized;
  using topk::range1d::Point1D;
  using topk::range1d::Range1D;
  using topk::range1d::Range1DProblem;

  // A "disk" with 512-byte pages (B = 64 words) and 64 frames of
  // memory (M = 64 B).
  BlockDevice disk(512);
  BufferPool pool(&disk, 64);

  topk::Rng rng(8);
  const size_t n = 200'000;
  std::vector<Point1D> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = {rng.NextDouble(), rng.NextDouble() * 1e6, i + 1};
  }

  // Bulk load the max structure through an external sort.
  auto by_x = [](const Point1D& a, const Point1D& b) {
    if (a.x != b.x) return a.x < b.x;
    return a.id < b.id;
  };
  auto sorted = topk::em::ExternalSortVector(&pool, data,
                                             /*memory_words=*/64 * 64, by_x);
  std::printf("external sort of %zu records: %llu page I/Os\n", n,
              static_cast<unsigned long long>(disk.counters().total()));
  EmBPlusTree max_structure(&pool, std::move(sorted));

  auto pri_factory = [&pool](std::vector<Point1D> v) {
    return EmRange1dPrioritized(&pool, std::move(v));
  };
  auto max_factory = [&pool](std::vector<Point1D> v) {
    return EmBPlusTree(&pool, std::move(v));
  };
  topk::ReductionOptions opts;
  opts.block_size = 64;
  topk::SampledTopK<Range1DProblem, EmRange1dPrioritized, EmBPlusTree,
                    decltype(pri_factory), decltype(max_factory)>
      topk_index(data, opts, pri_factory, max_factory);
  std::printf("device now holds %zu pages (%.1f MB)\n", disk.num_pages(),
              static_cast<double>(disk.num_pages()) * 512 / 1e6);

  const Range1D q{0.4, 0.6};
  pool.FlushAll();
  disk.ResetCounters();
  auto top = topk::Query(topk_index, q, 10);
  std::printf("\ntop-10 in [%.1f, %.1f] cost %llu page I/Os "
              "(a scan would be %zu):\n",
              q.lo, q.hi,
              static_cast<unsigned long long>(disk.counters().total()),
              n / (512 / sizeof(Point1D)));
  for (const Point1D& p : top) {
    std::printf("  id %-7llu weight %.1f\n",
                static_cast<unsigned long long>(p.id), p.weight);
  }
  return 0;
}
