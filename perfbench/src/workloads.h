// The four serving workloads. Each builds its stack from the seeded
// inputs, runs the closed loop for Args::seconds, checks every answer
// it samples against its oracle (OracleFail exits nonzero), and fills
// the Report: end-to-end metrics when untraced, per-layer metrics when
// traced. perfbench/README.md says why each workload exists.

#ifndef TOPK_PERFBENCH_WORKLOADS_H_
#define TOPK_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace topk::perfbench {

void RunServeThm1(const Args& args, Report* report);
void RunFederateZipf(const Args& args, Report* report);
void RunChurnDurable(const Args& args, Report* report);
void RunDeepkParallel(const Args& args, Report* report);

// Span-event capacity of each traced thread's recorder.
inline constexpr size_t kTraceCapacity = size_t{1} << 16;

}  // namespace topk::perfbench

#endif  // TOPK_PERFBENCH_WORKLOADS_H_
