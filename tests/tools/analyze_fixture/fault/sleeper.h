// Analyzer fixture (analyzed, never compiled): fault/ is no home for
// real sleeps (its spikes and backoff are accounting-only), so the
// rule must fire here too.

#ifndef TOPK_FAULT_SLEEPER_H_
#define TOPK_FAULT_SLEEPER_H_

#include <chrono>
#include <thread>

namespace topk {

inline void RealBackoff() {
  std::this_thread::sleep_for(std::chrono::nanoseconds(1));
}

}  // namespace topk

#endif  // TOPK_FAULT_SLEEPER_H_
