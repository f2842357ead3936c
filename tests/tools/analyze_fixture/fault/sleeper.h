// Analyzer fixture (analyzed, never compiled): files under a
// fault/ directory are a sanctioned home for real sleeps — the rule
// must stay quiet here.

#ifndef TOPK_FAULT_SLEEPER_H_
#define TOPK_FAULT_SLEEPER_H_

#include <chrono>
#include <thread>

namespace topk {

inline void SanctionedBackoff() {
  std::this_thread::sleep_for(std::chrono::nanoseconds(1));
}

}  // namespace topk

#endif  // TOPK_FAULT_SLEEPER_H_
