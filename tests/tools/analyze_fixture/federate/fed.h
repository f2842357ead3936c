// Clean federate-module header (federate sits on top of serve and may
// include it); the sabotage is the reverse edge in
// serve/uses_federate.h.

#ifndef TOPK_FEDERATE_FED_H_
#define TOPK_FEDERATE_FED_H_

#include "serve/widget.h"

namespace topk::federate {

struct SabFed {
  serve::SabWidget w;
};

}  // namespace topk::federate

#endif  // TOPK_FEDERATE_FED_H_
