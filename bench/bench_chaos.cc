// E22 — fault injection on the EM serving path: exact fault/retry
// accounting for the chain  BufferPool -> RetryingBlockDevice ->
// FaultyBlockDevice -> BlockDevice  under swept Bernoulli fault rates,
// on the Theorem 1 reduction over the Section 5.5 EM prioritized
// structure.
//
// Claims under test (the src/fault/ contract, see DESIGN.md):
//   * absorbed faults are free in the I/O model: whenever giveups = 0,
//     the read count is IDENTICAL to the fault-free run (failed
//     attempts are never charged) and every answer is exact;
//   * the accounting identity  faults = retries + giveups  holds at
//     every rate;
//   * giveups never abort: they surface as flagged FallibleTopK results
//     (flagged = queries whose answers must be discarded), and a
//     flagged query recovers by re-asking — re-asks are reported.
//
// This is a measurement table over a simulated device, not a timing
// run. Construction runs with faults disarmed (a zeroed page during
// bulk load has no degradation story).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "common/random.h"
#include "core/core_set_topk.h"
#include "em/block_device.h"
#include "em/buffer_pool.h"
#include "em/em_range1d.h"
#include "em/fallible.h"
#include "fault/failpoint.h"
#include "fault/faulty_block_device.h"
#include "fault/retrying_block_device.h"
#include "range1d/point1d.h"

namespace topk {
namespace {

using em::BlockDevice;
using em::BufferPool;
using em::EmRange1dPrioritized;
using em::FallibleTopK;
using fault::FaultyBlockDevice;
using fault::Injector;
using fault::RetryingBlockDevice;
using range1d::Point1D;
using range1d::Range1D;
using range1d::Range1DProblem;

constexpr size_t kN = 1 << 16;
constexpr size_t kQueries = 48;
constexpr size_t kMaxAttempts = 3;

using EmTopK = CoreSetTopK<Range1DProblem, EmRange1dPrioritized>;

struct Row {
  uint64_t reads = 0;
  uint64_t faults = 0;
  uint64_t retries = 0;
  uint64_t giveups = 0;
  uint64_t flagged = 0;
  uint64_t re_asks = 0;
};

Row Measure(double fault_rate, const std::vector<Point1D>& data,
            const std::vector<std::pair<Range1D, size_t>>& queries) {
  BlockDevice base(512);
  Injector inj(0xe22);
  FaultyBlockDevice faulty(&base, &inj);
  RetryingBlockDevice retry(&faulty, {.max_attempts = kMaxAttempts});
  BufferPool pool(&retry, 64);

  auto pri_factory = [&pool](std::vector<Point1D> v) {
    return EmRange1dPrioritized(&pool, std::move(v));
  };
  const EmTopK topk(data, ReductionOptions{.block_size = 64}, pri_factory);
  const FallibleTopK<EmTopK> fallible(&topk, &pool);
  base.ResetCounters();

  if (fault_rate > 0.0) {
    inj.Arm(fault::kReadFaultSite, {.probability = fault_rate});
  }
  Row row;
  for (const auto& [q, k] : queries) {
    auto r = fallible.Query(q, k);
    if (r.io_failed) {
      ++row.flagged;
      // Re-ask until the answer is trustworthy (poisoned frames are
      // never cached, so each re-ask re-rolls the fault schedule).
      do {
        ++row.re_asks;
        r = fallible.Query(q, k);
      } while (r.io_failed);
    }
  }
  row.reads = base.counters().reads;
  row.retries = base.counters().retries;
  row.giveups = base.counters().giveups;
  row.faults = faulty.read_faults();
  TOPK_CHECK(row.faults == row.retries + row.giveups);
  return row;
}

void Run() {
  std::printf(
      "E22: fault-injected EM serving (n=%zu, %zu queries, thm1 over the\n"
      "EM prioritized structure, retry budget %zu attempts/transfer).\n"
      "reads counts successful transfers only; flagged = queries whose\n"
      "result was discarded (a retry gave up mid-query); re_asks = extra\n"
      "queries until every flagged one recovered.\n",
      kN, kQueries, kMaxAttempts);
  std::printf("%10s %10s %8s %8s %8s %8s %8s %12s\n", "fault_rate",
              "reads", "faults", "retries", "giveups", "flagged", "re_asks",
              "reads_vs_0%");

  const std::vector<Point1D> data = bench::Points1D(kN, 22);
  Rng rng(0x22);
  std::vector<std::pair<Range1D, size_t>> queries;
  for (size_t i = 0; i < kQueries; ++i) {
    queries.push_back({bench::UniformRange1D(&rng),
                       (i % 8 == 0) ? size_t{512} : size_t{16}});
  }

  uint64_t baseline_reads = 0;
  for (const double rate : {0.0, 0.001, 0.01, 0.10}) {
    const Row row = Measure(rate, data, queries);
    if (rate == 0.0) baseline_reads = row.reads;
    char delta[32];
    if (row.giveups == 0 && row.reads == baseline_reads) {
      std::snprintf(delta, sizeof(delta), "identical");
    } else {
      std::snprintf(delta, sizeof(delta), "%+lld",
                    static_cast<long long>(row.reads) -
                        static_cast<long long>(baseline_reads));
    }
    std::printf("%10.3f %10llu %8llu %8llu %8llu %8llu %8llu %12s\n", rate,
                static_cast<unsigned long long>(row.reads),
                static_cast<unsigned long long>(row.faults),
                static_cast<unsigned long long>(row.retries),
                static_cast<unsigned long long>(row.giveups),
                static_cast<unsigned long long>(row.flagged),
                static_cast<unsigned long long>(row.re_asks), delta);
  }
}

}  // namespace
}  // namespace topk

int main() {
  topk::Run();
  return 0;
}
