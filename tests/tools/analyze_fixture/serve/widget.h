// Clean serve-module header (serve may include common).

#ifndef TOPK_SERVE_WIDGET_H_
#define TOPK_SERVE_WIDGET_H_

#include "common/ok.h"

namespace topk::serve {

struct SabWidget {
  SabPoint p;
};

}  // namespace topk::serve

#endif  // TOPK_SERVE_WIDGET_H_
