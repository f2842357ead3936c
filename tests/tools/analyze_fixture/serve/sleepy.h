// Analyzer fixture (analyzed, never compiled): the sleep rule must
// flag the bare sleep_for below, and honor the one-line suppression.

#ifndef TOPK_SERVE_SLEEPY_H_
#define TOPK_SERVE_SLEEPY_H_

#include <chrono>
#include <thread>

namespace topk {

inline void BadWait() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

inline void JustifiedWait() {
  std::this_thread::sleep_until(  // analyze: sleep-ok fixture suppression
      std::chrono::steady_clock::now());
}

}  // namespace topk

#endif  // TOPK_SERVE_SLEEPY_H_
