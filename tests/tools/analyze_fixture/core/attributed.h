// Class heads carrying attributes: `alignas(...)` puts parens in the
// head and `[[...]]` puts brackets between the keyword and the name.
// Neither may hide the class from the per-class posture rule — both
// classes hold unmarked mutable query state and must be flagged.

#ifndef TOPK_CORE_ATTRIBUTED_H_
#define TOPK_CORE_ATTRIBUTED_H_

namespace topk {

struct alignas(64) SabAligned {
  mutable int hits = 0;
};

class [[nodiscard]] SabNodiscard {
 public:
  int Probe() const { return ++hits_; }

 private:
  mutable int hits_ = 0;
};

}  // namespace topk

#endif  // TOPK_CORE_ATTRIBUTED_H_
