// Clean common-module header: no findings expected.

#ifndef TOPK_COMMON_OK_H_
#define TOPK_COMMON_OK_H_

namespace topk {

struct SabPoint {
  double weight = 0.0;
  unsigned long long id = 0;
};

}  // namespace topk

#endif  // TOPK_COMMON_OK_H_
