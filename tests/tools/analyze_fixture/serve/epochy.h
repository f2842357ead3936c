// Analyzer fixture (analyzed, never compiled): the epoch rule must
// flag the bare non-atomic member of the epoch-published type below,
// and honor the `// epoch:` posture comment (on any of the member's
// lines, not the access specifier's), the std::atomic exemption, and
// the one-line suppression. The unmarked type at the bottom must not
// be scanned at all.

#ifndef TOPK_SERVE_EPOCHY_H_
#define TOPK_SERVE_EPOCHY_H_

#include <atomic>
#include <cstdint>

namespace topk {

// epoch-published
struct BadEpoch {
  uint64_t seq = 0;  // no posture comment: must be flagged
 public:
  uint64_t documented = 0;  // epoch: written once before publish
  std::atomic<uint64_t> counter{0};
  uint64_t justified = 0;  // analyze: epoch-ok fixture suppression
  uint64_t spans_two_lines =
      0;  // epoch: on the line that ends the member
  uint64_t Seq() const { return seq; }
};

struct NotPublished {
  uint64_t bare_but_private_to_one_thread = 0;
};

}  // namespace topk

#endif  // TOPK_SERVE_EPOCHY_H_
