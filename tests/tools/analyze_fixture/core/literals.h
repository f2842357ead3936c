// Literal sabotage for the per-line rules: code is matched only after
// comments and string/char literals are blanked. A "http://" inside a
// literal must not end the line's code, a rule pattern inside a literal
// must not fire, a "/*" inside a literal must not open a comment, and a
// digit separator must not open a char literal. Each FLAG line must be
// flagged; everything else must stay quiet.

#ifndef TOPK_CORE_LITERALS_H_
#define TOPK_CORE_LITERALS_H_

#include <chrono>
#include <random>
#include <thread>

namespace topk {

inline void SabAfterUrl() {
  const char* url = "http://x"; std::mt19937 g;  // FLAG [random]
  (void)url;
  (void)g;
}

inline const char* SabQuoted() { return "call rand( here"; }

inline const char* SabOpensComment() { return "/*"; }

inline void SabAfterComment() {
  std::this_thread::sleep_for(std::chrono::nanoseconds(1));  // FLAG [sleep]
}

constexpr long kSabThousand = 1'000;

inline long SabAfterSeparator() {
  static_assert(kSabThousand == 1000);
  assert(kSabThousand > 0);  // FLAG [assert]
  return kSabThousand;
}

}  // namespace topk

#endif  // TOPK_CORE_LITERALS_H_
